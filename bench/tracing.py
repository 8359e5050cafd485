"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
tracer swaps a timing wrapper in for a public function of a dsalpha module
(and for the scipy.fft entry points that `dsalpha.spectral` calls), in every
dsalpha module namespace that holds a reference to it, and puts the originals
back on exit.  Nothing under src/ is modified.  Spans are kept in memory and
reduced to the per-layer metrics when the pass ends.
"""

import math
import os
import sys
import time

# scipy.fft entry points; wrapping them all means a later rfft2/irfft2 path in
# dsalpha.spectral is counted as well.
TRANSFORM_ENTRY_POINTS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)

# spans whose descendants count as stepping work
_STEPPING = ("stepping.integrate", "stepping.ifrk4_step", "stepping.record")


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Install with `with Tracer() as tr:`; the wrappers are removed on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, attrs=None):
        """Timing wrapper; `name` may be a callable of (args, kwargs)."""
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_minres(self, fn):
        """MINRES wrapper that counts iterations through the solver callback."""
        tracer = self

        def wrapper(A, b, *args, callback=None, **kwargs):
            count = [0]

            def counting(xk):
                count[0] += 1
                if callback is not None:
                    callback(xk)

            span = tracer._open("modulation.minres")
            try:
                return fn(A, b, *args, callback=counting, **kwargs)
            finally:
                tracer._close(span)
                span.attrs = {"iterations": count[0]}

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def patch(self, owner, attr, wrapper_factory):
        """Replace owner.attr, and every dsalpha-module alias of it."""
        original = getattr(owner, attr)
        wrapper = wrapper_factory(original)
        targets = [owner] + [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "dsalpha" or n.startswith("dsalpha."))
        ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._undo.append((target, key, original))

    def __enter__(self):
        import scipy.fft

        import dsalpha.cli as cli
        import dsalpha.config as config
        import dsalpha.ground_state as ground_state
        import dsalpha.harness as harness
        import dsalpha.models as models
        import dsalpha.modulation as modulation
        import dsalpha.snapshots as snapshots
        import dsalpha.stepping as stepping
        from dsalpha.grid import Grid2D

        w = self.wrap
        for entry in TRANSFORM_ENTRY_POINTS:
            self.patch(scipy.fft, entry, lambda f: w("spectral.transform", f))
        self.patch(models, "potential_values", lambda f: w("models.potential_values", f))
        self.patch(models, "hamiltonian", lambda f: w("models.hamiltonian", f))
        self.patch(stepping, "integrate", lambda f: w("stepping.integrate", f, _integrate_attrs))
        self.patch(stepping, "_record", lambda f: w("stepping.record", f))
        self.patch(stepping, "ifrk4_step",
                   lambda f: w("stepping.ifrk4_step", f, _ifrk4_attrs))
        self.patch(ground_state, "solve_ground_state",
                   lambda f: w("ground_state.solve", f))
        # one even-symmetrization per Petviashvili sweep: the iteration marker
        self.patch(ground_state, "symmetrize_even",
                   lambda f: w("ground_state.iteration", f))
        self.patch(modulation, "solve_linearized",
                   lambda f: w(_linearized_name, f))
        self.patch(modulation, "minres", self.wrap_minres)
        self.patch(modulation, "integrate_reduced",
                   lambda f: w("modulation.integrate_reduced", f))
        self.patch(modulation, "collapse_fit", lambda f: w("modulation.collapse_fit", f))
        self.patch(harness, "run_simulation", lambda f: w("harness.run_simulation", f))
        self.patch(harness, "write_diagnostics_csv", lambda f: w("harness.csv_write", f))
        self.patch(snapshots, "write_snapshot",
                   lambda f: w("snapshots.write", f, _snapshot_bytes))
        self.patch(snapshots, "read_snapshot", lambda f: w("snapshots.read", f))
        self.patch(config, "load_config", lambda f: w("config.load", f))
        self.patch(cli, "main", lambda f: w("cli.main", f))
        self.patch(Grid2D, "__init__", lambda f: w("grid.build", f))
        return self

    def __exit__(self, *exc):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()
        return False


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _linearized_name(args, kwargs):
    return f"modulation.linearized.{_arg(args, kwargs, 2, 'mode')}"


def _integrate_attrs(args, kwargs, outcome):
    spec = _arg(args, kwargs, 1, "spec")
    control = _arg(args, kwargs, 2, "control")
    return {
        "kind": spec.kind.value,
        "steps": outcome.steps,
        "dt_levels": _dt_levels(outcome.records, control),
    }


def _ifrk4_attrs(args, kwargs, result):
    return {"kind": _arg(args, kwargs, 1, "spec").kind.value}


def _snapshot_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _dt_levels(records, control):
    """Distinct step sizes seen in the records, excluding a truncated last step.

    An adaptive run steps at dt_max * 2^-m; a fixed run at control.dt.
    """
    levels = set()
    for r in records:
        if control.adaptive:
            m = math.log2(control.dt_max / r.dt) if r.dt > 0 else -1.0
            if m >= 0 and abs(m - round(m)) < 1e-9:
                levels.add(control.dt_max * 2.0 ** -round(m))
        elif abs(r.dt - control.dt) <= 1e-12 * control.dt:
            levels.add(control.dt)
    return levels


def layer_metrics(spans):
    """Reduce a pass's spans to the per-layer metrics (counts and seconds)."""
    n = len(spans)
    child_time = [0.0] * n
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration

    def ancestor(i, names):
        p = spans[i].parent
        while p >= 0:
            if spans[p].name in names:
                return spans[p]
            p = spans[p].parent
        return None

    count, total, self_s = {}, {}, {}
    for i, span in enumerate(spans):
        count[span.name] = count.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - child_time[i]

    steps = steps_dse = 0
    levels = set()
    transforms_in_steps = 0
    minres = {"GY": 0, "HZ": 0}
    iterations = 0
    write_bytes = 0
    for i, span in enumerate(spans):
        if span.name == "stepping.integrate":
            steps += span.attrs["steps"]
            if span.attrs["kind"] == "dse":
                steps_dse += span.attrs["steps"]
            levels |= span.attrs["dt_levels"]
        elif span.name == "stepping.ifrk4_step":
            steps += 1
            if span.attrs["kind"] == "dse":
                steps_dse += 1
        elif span.name == "spectral.transform":
            if ancestor(i, _STEPPING) is not None:
                transforms_in_steps += 1
        elif span.name == "modulation.minres":
            solve = ancestor(i, ("modulation.linearized.GY", "modulation.linearized.HZ"))
            if solve is not None:
                minres[solve.name.rsplit(".", 1)[1]] += span.attrs["iterations"]
        elif span.name == "ground_state.iteration":
            if ancestor(i, ("ground_state.solve",)) is not None:
                iterations += 1
        elif span.name == "snapshots.write":
            write_bytes += span.attrs["bytes"]

    c = lambda name: count.get(name, 0)
    s = lambda name: total.get(name, 0.0)
    return {
        "spectral.transforms_per_step": (transforms_in_steps / steps if steps else 0.0, "count"),
        "spectral.transform_calls": (c("spectral.transform"), "count"),
        "spectral.transform_s": (s("spectral.transform"), "s"),
        "models.potential_values.calls": (c("models.potential_values"), "count"),
        "models.potential_values.s": (s("models.potential_values"), "s"),
        "models.hamiltonian.calls": (c("models.hamiltonian"), "count"),
        "models.hamiltonian.s": (s("models.hamiltonian"), "s"),
        "stepping.steps": (steps, "count"),
        "stepping.steps.dse": (steps_dse, "count"),
        "stepping.records": (c("stepping.record"), "count"),
        "stepping.dt_levels": (len(levels), "count"),
        "stepping.integrate.s": (s("stepping.integrate"), "s"),
        "stepping.record.s": (s("stepping.record"), "s"),
        "stepping.self_s": (
            self_s.get("stepping.integrate", 0.0) + self_s.get("stepping.ifrk4_step", 0.0), "s"),
        "ground_state.iterations": (iterations, "count"),
        "ground_state.solve_s": (s("ground_state.solve"), "s"),
        "modulation.minres_iterations.GY": (minres["GY"], "count"),
        "modulation.minres_iterations.HZ": (minres["HZ"], "count"),
        "modulation.linearized.GY.s": (s("modulation.linearized.GY"), "s"),
        "modulation.linearized.HZ.s": (s("modulation.linearized.HZ"), "s"),
        "modulation.integrate_reduced.s": (s("modulation.integrate_reduced"), "s"),
        "modulation.collapse_fit.s": (s("modulation.collapse_fit"), "s"),
        "harness.run_simulation.s": (s("harness.run_simulation"), "s"),
        "harness.csv_write.s": (s("harness.csv_write"), "s"),
        "snapshots.write.s": (s("snapshots.write"), "s"),
        "snapshots.write_bytes": (write_bytes, "B"),
        "snapshots.read.s": (s("snapshots.read"), "s"),
        "config.load.s": (s("config.load"), "s"),
        "cli.main.s": (s("cli.main"), "s"),
        "grid.build.s": (s("grid.build"), "s"),
    }
