"""Properties only a fresh interpreter shows: what `import dsalpha` loads,
and GY/HZ results under other thread counts.  The pytest process has scipy's
submodules loaded already and its thread pools started, so each check runs
a child process on this checkout's src/."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# scipy subpackages that simulate, ground-state and a collapse fit never use
UNUSED_BY_RUNS = ("scipy.integrate", "scipy.optimize", "scipy.sparse")


def run_child(code, *args, **env):
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=environ,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


IMPORT_CONTRACT = """
import json, sys
import numpy as np
import dsalpha, dsalpha.cli
from dsalpha import DiagnosticsRecord, ModulationConstants, collapse_fit, integrate_reduced

def loaded():
    return sorted(m for m in sys.modules if m.startswith(tuple(sys.argv[2].split(","))))

ts = np.linspace(0.0, 0.999, 200)
collapse_fit([DiagnosticsRecord(t=t, dt=1e-3, mass=1.0, hamiltonian=0.0, grad_norm=1.0,
                                max_amp=1.0, L_est=(1.0 - t) ** 0.5) for t in ts])
for command in ("simulate", "ground-state"):
    assert dsalpha.cli.main([command, sys.argv[1]]) == 0
before = loaded()
c = ModulationConstants(C1=1.0, C2=2.0, C3=1.0, C4=0.0, S_mass=11.7)
traj = integrate_reduced(c, 0.1, 1.0, -1.0, 2.0)
print(json.dumps({"before": before, "after": loaded(), "l_min": traj.l_min,
                  "q_drift": traj.q_drift}))
"""

TINY_RUN = """
model.kind = rds3
model.beta = 1.0
model.rho = -1.0
model.nu = 1.0
model.alpha = 0.2
grid.nx = 32
grid.ny = 32
grid.lx = 16
grid.ly = 16
step.dt = 2e-3
step.dt_max = 2e-3
step.t_end = 0.01
ic.amplitude = 1.5
ic.width = 1.2
output.dir = {out}
"""


def test_runs_and_fit_load_only_scipy_fft(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN.format(out=tmp_path / "out"))
    got = run_child(IMPORT_CONTRACT, cfg, ",".join(UNUSED_BY_RUNS))
    assert got["before"] == []
    # the reduced ODE imports its integrator on first use, and still works
    assert "scipy.integrate" in got["after"]
    assert 0.0 < got["l_min"] < 1.0 and got["q_drift"] < 1e-8


LINEARIZED = """
import hashlib, json, sys
from dsalpha import Grid2D, ModelKind, ModelSpec, solve_ground_state, solve_linearized

g = Grid2D(256, 256, 48.0, 48.0)
ground = solve_ground_state(g, 1.0, -1.0, 1.0)
out = {}
for mode in ("GY", "HZ"):
    sol = solve_linearized(ground, ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1), mode)
    out[mode] = {
        "first": hashlib.sha256(sol.first.values.tobytes()).hexdigest(),
        "second": hashlib.sha256(sol.second.values.tobytes()).hexdigest(),
        "inner_with_S": sol.inner_with_S.hex(),
        "iterations": sol.iterations,
    }
print(json.dumps(out))
"""


def test_linearized_solves_do_not_depend_on_thread_counts():
    # 256^2 / box 48: the quarter (129^2) is long enough for OpenBLAS to split
    # a dot product across threads, so a BLAS reduction would change the bits
    runs = {
        (blas, fft): run_child(LINEARIZED, OPENBLAS_NUM_THREADS=str(blas),
                               DSALPHA_FFT_WORKERS=str(fft))
        for blas in (1, 2) for fft in (1, 2)
    }
    reference = runs[1, 1]
    assert reference["GY"]["iterations"] > 0 and reference["HZ"]["iterations"] > 0
    for threads, got in runs.items():
        assert got == reference, threads
