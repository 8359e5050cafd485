"""Kernel table: direct calls to the step's building blocks at fixed sizes.

Each op is timed by calling dsalpha's public functions on a dichotomy-style
Gaussian (box 16, width 1.2, 1.3x the coupled ground-state mass) for DSE and
for RDS3 (alpha = 0.1).  `phase_substep`, `linear_substep` and `reductions`
repeat the expressions that `stepping.integrate` evaluates inline each step.

Beside each time the table gives the op's bytes moved per call, computed from
array sizes under a simple model: every numpy pass reads its operands once and
writes its result once (16 B per complex, 8 B per real, 1 B per mask
element), a real view of a complex array reads the whole complex array, and an
FFT is one read and one write.  Cache reuse is ignored, so these are
"computed" bytes, not measured traffic.  Every working set here fits in the
last-level cache, so no bandwidth ratio is given.
"""

import statistics
import time

import numpy as np

C, R, B = 16, 8, 1

# (reads, writes) in bytes per grid point, one entry per numpy pass
FFT = [(C, C)]


def _dealias(frac):
    return [(C, C), (B, frac * C)]  # copy, then zero the masked fraction


def _aux(kind, frac):
    """Passes of models._aux_arrays for one state."""
    passes = FFT + _dealias(frac) + FFT          # vh, vd
    passes += [(C, C), (2 * C, C)]               # vd.conj(), vd * conj
    passes += FFT + _dealias(frac)               # ih
    if kind == "rds3":
        passes += [(R + C, C)] + FFT             # uh = B ih, u
        passes += [(2 * R, R), (R + C, C)] + FFT  # pot = B E B |v|^2
        passes += 2 * ([(R + C, C)] + FFT)       # vel_x, vel_y from uh
    else:
        passes += 2 * ([(R + C, C)] + FFT)       # vel_x (= pot), vel_y from ih
    return passes


def _potential(kind, frac):
    return _aux(kind, frac) + [(C, R), (C, R), (2 * R, R)]  # beta*ueff - rho*pot


_GRAD_NORM = [(C, R), (R, R), (2 * R, R), (R, 0)]
_MASS = [(C, C), (2 * C, C), (C, 0)]
_MAX_ABS = [(C, R), (R, 0)]


def passes(op, kind, frac):
    if op == "fft2":
        return FFT
    if op == "potential_values":
        return _potential(kind, frac)
    if op == "phase_substep":
        return _potential(kind, frac) + [(R, C), (C, C), (2 * C, C)]  # scale, exp, multiply
    if op == "linear_substep":
        return FFT + [(2 * C, C)] + FFT
    if op == "reductions":
        # max|v|^2 for dt, the mass sum, max|v| for the threshold, isfinite
        return _MASS + _MASS + _MAX_ABS + [(C, B), (B, 0)]
    if op == "record":
        hamiltonian = FFT + _GRAD_NORM + _aux(kind, frac)
        hamiltonian += [(2 * C, R), (R, 0)]                      # quartic term
        hamiltonian += [(C, R), (C, R), (R, R), (2 * R, R), (R, 0)]  # mean-flow term
        return FFT + _GRAD_NORM + _MASS + hamiltonian + _MAX_ABS
    raise ValueError(op)


def computed_bytes(op, kind, n, frac):
    return int(round(n * n * sum(r + w for r, w in passes(op, kind, frac))))


OPS = ("fft2", "potential_values", "phase_substep", "linear_substep", "reductions", "record")


def kernel_table(sizes, reps_for, ground_mass):
    """Return {metric name: (value, unit)} for every op, kind and size."""
    import dsalpha
    from dsalpha import harness, spectral, stepping
    from dsalpha.models import potential_values

    out = {}
    for n in sizes:
        g = dsalpha.Grid2D(n, n, 16.0, 16.0)
        frac = float(np.mean(g.dealias_zero))
        amp = harness.gaussian_amplitude_for_mass(1.3 * ground_mass, 1.2)
        v = harness.gaussian_state(g, amp, 1.2).values
        dt = 1e-3
        phase = np.exp(-1j * dt * g.k2)
        da = g.cell_area
        specs = {
            "dse": dsalpha.ModelSpec(dsalpha.ModelKind.DSE, 1.0, -1.0, 1.0, 0.0),
            "rds3": dsalpha.ModelSpec(dsalpha.ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1),
        }

        def reductions():
            amp2 = float(np.max((v * v.conj()).real))
            m = np.sum((v * v.conj()).real) * da
            peak = float(np.max(np.abs(v)))
            return amp2, m, peak, np.isfinite(v).all()

        for kind, spec in specs.items():
            calls = {
                "fft2": lambda: spectral.fft2(v),
                "potential_values": lambda: potential_values(v, g, spec),
                "phase_substep": lambda: v * np.exp(1j * 0.5 * dt * potential_values(v, g, spec)),
                "linear_substep": lambda: spectral.ifft2(phase * spectral.fft2(v)),
                "reductions": reductions,
                "record": lambda: stepping._record(g, spec, 0.0, dt, v, 1.0),
            }
            for op in OPS:
                fn = calls[op]
                fn()  # warm: symbol caches, first-touch pages
                times = []
                for _ in range(reps_for(n)):
                    t0 = time.perf_counter()
                    fn()
                    times.append(time.perf_counter() - t0)
                out[f"kernel.{op}.{kind}.{n}_ms"] = (1e3 * statistics.median(times), "ms")
                out[f"kernel.{op}.{kind}.{n}_bytes"] = (
                    computed_bytes(op, kind, n, frac), "B_computed")
        del g, v, phase
    return out
