"""The benchmark's workloads: inputs made from a seed, the program calls that
are timed, and the physics checks each run must pass before its timing counts.

Every workload has the same shape:

    setup()      builds what a user's process builds before its first timed
                 call (config, Grid2D and spectral symbols, initial state, one
                 transform); timed as `setup_s`
    run()        the timed program calls; returns a Unit
    check(u, c)  records each named check of CHECKS on the Checks object c

The seed varies the inputs without changing the work: a global phase and a
whole-cell shift of the initial state (the equations are invariant under
both, so step counts and transform counts repeat), and the initial data of
the reduced ODE for `modulation`.
"""

import contextlib
import io
import math
import os
import re
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import dsalpha
from dsalpha import cli, config, harness, spectral
from dsalpha.snapshots import read_snapshot

# Coupled (beta=1, rho=-1, nu=1) ground-state mass at 256^2 / box 48: the
# dichotomy's mass scale, and the reference the `modulation` run is checked
# against.
GROUND_MASS = 7.6928635


@dataclass
class Unit:
    wall_s: float      # program calls only, checks excluded
    steps: int         # solver steps the calls took
    step_s: float      # time in the calls that took them
    outputs: dict = field(default_factory=dict)


class Checks:
    """Named pass/fail results; an exception fails every check not yet run."""

    def __init__(self, names):
        self.names = tuple(names)
        self.results = {}

    def record(self, name, ok, detail):
        if name not in self.names:
            raise KeyError(name)
        self.results[name] = (bool(ok), detail)

    def fail_remaining(self, reason):
        for name in self.names:
            self.results.setdefault(name, (False, reason))

    @property
    def failed(self):
        return sum(1 for ok, _ in self.results.values() if not ok)


def _quiet(fn, *args):
    """Call fn with stdout captured; returns (result, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


def _write_cfg(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs.items():
            fh.write(f"{key} = {value}\n")


def _rng(seed):
    return np.random.default_rng(seed % 2**63)


def _mass_drift(records):
    m0 = records[0].mass
    return max(abs(r.mass - m0) / m0 for r in records)


class Dichotomy:
    """DSE focuses past a 14x amplitude threshold; its RDS3 twin stays bounded.

    Through the public API: two `integrate` calls and a `collapse_fit`.
    """

    name = "dichotomy"
    CHECKS = (
        "dse_blow_up_grad_growth_gt_10",
        "rds3_reached_t_end_second_half_grad_ratio_lt_10",
        "dse_mass_drift_lt_1e-11",
        "rds3_mass_drift_lt_1e-11",
        "collapse_exponent_in_0.4_0.6",
    )

    def __init__(self, seed, smoke, out_dir):
        # at 128^2 only a box of 8 resolves the collapse well enough for the
        # checks; it reaches the threshold in the same number of steps
        self.n = 128 if smoke else 384
        self.box = 8.0 if smoke else 16.0
        self.record_every = 1 if smoke else 3
        self.width = 1.2
        self.rds3_t_end = 0.05 if smoke else 0.4
        rng = _rng(seed)
        self.theta = float(rng.uniform(0.0, 2.0 * math.pi))
        self.shift = tuple(int(s) for s in rng.integers(-4, 5, size=2))

    def sizes(self):
        return {"grid": self.n, "box": self.box, "dse_t_end": 2.0,
                "rds3_t_end": self.rds3_t_end, "record_every": self.record_every,
                "phase": self.theta, "shift_cells": list(self.shift)}

    def setup(self):
        g = dsalpha.Grid2D(self.n, self.n, self.box, self.box)
        g.e_symbol(1.0, "xx"), g.e_symbol(1.0, "xy"), g.helmholtz_symbol(0.1)
        self.amp = harness.gaussian_amplitude_for_mass(1.3 * GROUND_MASS, self.width)
        v = harness.gaussian_state(g, self.amp, self.width).values
        v = np.roll(v, self.shift, axis=(0, 1)) * np.exp(1j * self.theta)
        self.v0 = dsalpha.complex_field(g, v)
        spectral.fft2(self.v0.values)

    def _control(self, t_end):
        return dsalpha.StepControl(dt=1e-3, dt_min=1e-11, dt_max=4e-3, adaptive=True,
                                   cfl_const=0.2, t_end=t_end, amp_max=14.0 * self.amp)

    def run(self):
        dse_spec = dsalpha.ModelSpec(dsalpha.ModelKind.DSE, 1.0, -1.0, 1.0, 0.0)
        rds_spec = dsalpha.ModelSpec(dsalpha.ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1)
        t0 = time.perf_counter()
        dse = dsalpha.integrate(self.v0, dse_spec, self._control(2.0),
                                record_every=self.record_every)
        rds = dsalpha.integrate(self.v0, rds_spec, self._control(self.rds3_t_end),
                                record_every=self.record_every)
        t1 = time.perf_counter()
        fit = dsalpha.collapse_fit(dse.records)
        t2 = time.perf_counter()
        return Unit(wall_s=t2 - t0, steps=dse.steps + rds.steps, step_s=t1 - t0,
                    outputs={"dse": dse, "rds": rds, "fit": fit})

    def check(self, unit, checks):
        dse, rds, fit = unit.outputs["dse"], unit.outputs["rds"], unit.outputs["fit"]
        growth = dse.records[-1].grad_norm / dse.records[0].grad_norm
        checks.record(self.CHECKS[0],
                      dse.status is dsalpha.RunStatus.BLOW_UP_DETECTED and growth > 10.0,
                      f"{dse.status.value}, grad x{growth:.2f} in {dse.steps} steps")
        half = [r.grad_norm for r in rds.records if r.t >= 0.5 * rds.t_final]
        ratio = max(half) / min(half)
        checks.record(self.CHECKS[1],
                      rds.status is dsalpha.RunStatus.REACHED_T_END and ratio < 10.0,
                      f"{rds.status.value}, second-half grad max/min {ratio:.3f}")
        for key, out in (("dse", dse), ("rds3", rds)):
            drift = max(out.max_mass_drift, _mass_drift(out.records))
            checks.record(f"{key}_mass_drift_lt_1e-11", drift < 1e-11, f"{drift:.2e}")
        checks.record(self.CHECKS[4], 0.4 <= fit.exponent <= 0.6, f"p={fit.exponent:.4f}")


class Modulation:
    """`dsalpha modulation <cfg>` in-process: Petviashvili continuation, the
    GY/HZ MINRES solves, the constants and the reduced ODE.  Nothing steps.
    """

    name = "modulation"
    CHECKS = (
        "cli_exit_code_0",
        "ground_residual_lt_1e-10",
        "ground_mass_7.692864_to_1e-6",
        "gy_relative_residual_lt_1e-8",
        "hz_relative_residual_lt_1e-8",
        "c1_c2_positive",
    )
    MASS_REF = 7.692864

    def __init__(self, seed, smoke, out_dir):
        # the mass reference needs box 48 at dx <= 0.1875, so smoke keeps 256^2
        self.n = 256 if smoke else 512
        self.box = 48.0
        self.out_dir = out_dir
        rng = _rng(seed)
        self.l0 = float(rng.uniform(0.8, 1.2))
        self.lt0 = float(-rng.uniform(0.8, 1.2))
        self.cfg_path = os.path.join(out_dir, "modulation.cfg")

    def sizes(self):
        return {"grid": self.n, "box": self.box, "reduced_l0": self.l0,
                "reduced_lt0": self.lt0, "reduced_t_end": 2.0}

    def setup(self):
        _write_cfg(self.cfg_path, {
            "model.kind": "rds3", "model.beta": 1.0, "model.rho": -1.0, "model.nu": 1.0,
            "model.alpha": 0.1, "grid.nx": self.n, "grid.ny": self.n,
            "grid.lx": self.box, "grid.ly": self.box,
            "output.dir": os.path.join(self.out_dir, "modulation"),
            "reduced.l0": repr(self.l0), "reduced.lt0": repr(self.lt0),
            "reduced.t_end": 2.0,
        })
        cfg = config.load_config(self.cfg_path)
        g = harness.build_grid(cfg)
        g.inverse_one_minus_laplacian_symbol(), g.e_symbol(cfg.nu, "xx")
        seed_profile = 2.2 * np.exp(-g.r2 / 2.0)
        spectral.fft2(seed_profile)

    def run(self):
        # observe the one ground-state solve: its result for the residual check,
        # its duration and its sweep count for steps_per_s
        import dsalpha.ground_state as gs_mod

        seen = {"iterations": 0}
        solve, sweep = cli.ground_state_for, gs_mod.symmetrize_even

        def counted_sweep(a):
            seen["iterations"] += 1
            return sweep(a)

        def observed_solve(*args, **kwargs):
            t = time.perf_counter()
            seen["ground"] = solve(*args, **kwargs)
            seen["solve_s"] = time.perf_counter() - t
            return seen["ground"]

        cli.ground_state_for, gs_mod.symmetrize_even = observed_solve, counted_sweep
        try:
            t0 = time.perf_counter()
            rc, _ = _quiet(cli.main, ["modulation", self.cfg_path])
            wall = time.perf_counter() - t0
        finally:
            cli.ground_state_for, gs_mod.symmetrize_even = solve, sweep
        return Unit(wall_s=wall, steps=seen["iterations"], step_s=seen.get("solve_s", wall),
                    outputs={"rc": rc, "ground": seen.get("ground")})

    def check(self, unit, checks):
        checks.record(self.CHECKS[0], unit.outputs["rc"] == 0, f"rc={unit.outputs['rc']}")
        gs = unit.outputs["ground"]
        res = dsalpha.residual_norm(gs.S, gs.X, gs.beta, gs.rho, gs.nu)
        checks.record(self.CHECKS[1], res < 1e-10, f"residual_norm {res:.2e}")
        path = os.path.join(self.out_dir, "modulation", "constants.csv")
        with open(path, encoding="utf-8") as fh:
            header, row = fh.read().split()
        c = dict(zip(header.split(","), (float(x) for x in row.split(","))))
        checks.record(self.CHECKS[2], abs(c["S_mass"] - self.MASS_REF) < 1e-6,
                      f"S_mass {c['S_mass']:.9f}")
        checks.record(self.CHECKS[3], c["residual_GY"] < 1e-8, f"{c['residual_GY']:.2e}")
        checks.record(self.CHECKS[4], c["residual_HZ"] < 1e-8, f"{c['residual_HZ']:.2e}")
        checks.record(self.CHECKS[5], c["C1"] > 0 and c["C2"] > 0,
                      f"C1={c['C1']:.6g} C2={c['C2']:.6g}")


class Persistence:
    """`dsalpha simulate` in-process on RDS2 with a record every step and a
    snapshot every 25, then `simulate --resume` from the middle snapshot, then
    the IFRK4 stepper over the first quarter of the horizon.
    """

    name = "persistence"
    CHECKS = (
        "cli_exit_codes_0",
        "resume_equals_uninterrupted_to_1e-12",
        "ifrk4_within_1e-5_of_strang",
        "full_run_mass_drift_lt_1e-11",
        "resumed_run_mass_drift_lt_1e-11",
    )

    def __init__(self, seed, smoke, out_dir):
        self.n = 64 if smoke else 256
        self.box = 32.0
        self.dt = 0.01
        self.steps = 20 if smoke else 200
        self.snapshot_every = 5 if smoke else 25
        self.out_dir = out_dir
        rng = _rng(seed)
        self.shift = tuple(int(s) for s in rng.integers(-4, 5, size=2))
        self.paths = {k: os.path.join(out_dir, f"{k}.cfg") for k in ("full", "resumed", "ifrk4")}

    def sizes(self):
        return {"grid": self.n, "box": self.box, "dt": self.dt, "steps": self.steps,
                "resume_at_step": self.steps // 2, "ifrk4_steps": self.steps // 4,
                "snapshot_every": self.snapshot_every, "shift_cells": list(self.shift)}

    def setup(self):
        dx = self.box / self.n
        base = {
            "model.kind": "rds2", "model.beta": -0.5, "model.rho": -1.0, "model.nu": 1.0,
            "model.alpha": 0.2, "grid.nx": self.n, "grid.ny": self.n,
            "grid.lx": self.box, "grid.ly": self.box,
            "step.adaptive": "false", "step.dt": self.dt, "step.dt_max": self.dt,
            "step.t_end": repr(self.steps * self.dt),
            "ic.amplitude": 1.0, "ic.width": 1.5,
            "ic.center_x": repr(self.shift[0] * dx), "ic.center_y": repr(self.shift[1] * dx),
            "output.record_every": 1, "output.snapshot_every": self.snapshot_every,
        }
        for key, path in self.paths.items():
            pairs = dict(base, **{"output.dir": os.path.join(self.out_dir, key)})
            if key == "ifrk4":
                pairs["step.stepper"] = "ifrk4"
                pairs["step.t_end"] = repr((self.steps // 4) * self.dt)
            _write_cfg(path, pairs)
        cfg = config.load_config(self.paths["full"])
        g = harness.build_grid(cfg)
        g.e_symbol(cfg.nu, "xx"), g.e_symbol(cfg.nu, "xy"), g.helmholtz_symbol(cfg.alpha)
        spectral.fft2(harness.initial_state(cfg, g).values)

    def _snapshot(self, run, step):
        return os.path.join(self.out_dir, run, f"snapshot_{step:08d}.snap")

    def run(self):
        rcs, steps = [], 0
        t0 = time.perf_counter()
        for argv in (
            ["simulate", self.paths["full"]],
            ["simulate", self.paths["resumed"], "--resume",
             self._snapshot("full", self.steps // 2)],
            ["simulate", self.paths["ifrk4"]],
        ):
            rc, text = _quiet(cli.main, argv)
            rcs.append(rc)
            found = re.search(r"\bsteps=(\d+)", text)
            steps += int(found.group(1)) if found else 0
        wall = time.perf_counter() - t0
        return Unit(wall_s=wall, steps=steps, step_s=wall, outputs={"rcs": rcs})

    def check(self, unit, checks):
        rcs = unit.outputs["rcs"]
        checks.record(self.CHECKS[0], rcs == [0, 0, 0], f"rc={rcs}")
        final = {k: read_snapshot(os.path.join(self.out_dir, k, "final.snap"))
                 for k in ("full", "resumed", "ifrk4")}
        a, b = final["full"][0].values, final["resumed"][0].values
        diff = float(np.max(np.abs(a - b)) / np.max(np.abs(a)))
        same_t = abs(final["full"][1] - final["resumed"][1]) < 1e-12
        checks.record(self.CHECKS[1], same_t and diff < 1e-12,
                      f"max rel diff {diff:.2e}, t {final['full'][1]} vs {final['resumed'][1]}")
        strang, t_s, _ = read_snapshot(self._snapshot("full", self.steps // 4))
        rk, t_rk = final["ifrk4"][0].values, final["ifrk4"][1]
        rel = float(np.linalg.norm(rk - strang.values) / np.linalg.norm(strang.values))
        checks.record(self.CHECKS[2], abs(t_s - t_rk) < 1e-12 and rel < 1e-5,
                      f"relative L2 {rel:.2e} at t={t_rk}")
        for key, name in (("full", self.CHECKS[3]), ("resumed", self.CHECKS[4])):
            recs = harness.read_diagnostics_csv(os.path.join(self.out_dir, key, "diagnostics.csv"))
            drift = _mass_drift(recs)
            checks.record(name, drift < 1e-11, f"{drift:.2e} over {len(recs)} records")


class Stepping:
    """`Dichotomy`, then `Persistence`: the two stepping workloads as one unit.

    The benchmark's time budget allows runs of about a minute only for two
    workloads, so the stepping layers share one workload and `modulation`
    keeps the other; see NOTES.md, "Steadiness and bounds".
    """

    name = "stepping"

    def __init__(self, seed, smoke, out_dir):
        self.parts = (Dichotomy(seed, smoke, out_dir), Persistence(seed, smoke, out_dir))
        self.CHECKS = tuple(name for part in self.parts for name in part.CHECKS)

    def sizes(self):
        return {part.name: part.sizes() for part in self.parts}

    def setup(self):
        for part in self.parts:
            part.setup()

    def run(self):
        units = [part.run() for part in self.parts]
        return Unit(wall_s=sum(u.wall_s for u in units), steps=sum(u.steps for u in units),
                    step_s=sum(u.step_s for u in units), outputs={"units": units})

    def check(self, unit, checks):
        for part, part_unit in zip(self.parts, unit.outputs["units"]):
            part.check(part_unit, checks)


WORKLOADS = {w.name: w for w in (Stepping, Modulation, Dichotomy, Persistence)}


def make(name, seed, smoke, root):
    out_dir = os.path.join(root, ".bench_out", name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    return WORKLOADS[name](seed, smoke, out_dir)
