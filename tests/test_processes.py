"""Properties only a fresh interpreter shows: what `import dsalpha` loads,
GY/HZ and stepping results under other thread counts, and `python -m
dsalpha` itself.
The pytest process has scipy's submodules loaded already and its thread
pools started, so each check runs a child process on this checkout's src/."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# scipy subpackages that no subcommand uses: everything but scipy.fft and the
# scipy.special it imports
UNUSED_BY_RUNS = ("scipy.constants", "scipy.integrate", "scipy.linalg", "scipy.optimize",
                  "scipy.sparse", "scipy.spatial")


def run_python(*args, **env):
    """The finished `python *args` child, on this checkout's src/."""
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], env=environ,
                          capture_output=True, text=True, timeout=300)


def run_child(code, *args, **env):
    done = run_python("-c", code, *args, **env)
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
for argv in (["modulation", sys.argv[1]], ["sweep", sys.argv[1], "--alphas=0.1,0.2"]):
    assert dsalpha.cli.main(argv) == 0
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
    # modulation, sweep and the reduced ODE on its own import nothing more
    assert got["after"] == []
    assert 0.0 < got["l_min"] < 1.0 and got["q_drift"] < 1e-8


def test_module_entry_point_exit_codes(tmp_path):
    # __main__.py hands cli.main's return value to sys.exit
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN.format(out=tmp_path / "out").replace("= 32", "= 16"))
    done = run_python("-m", "dsalpha", "simulate", cfg)
    assert done.returncode == 0, done.stderr
    assert "status=reached_t_end" in done.stdout
    assert (tmp_path / "out" / "diagnostics.csv").exists()
    done = run_python("-m", "dsalpha", "simulate", tmp_path / "absent.cfg")
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"error: config file not found: {tmp_path / 'absent.cfg'}"]


LINEARIZED = """
import hashlib, json, sys
import scipy.fft
from dsalpha import Grid2D, ModelKind, ModelSpec, solve_ground_state, solve_linearized

g = Grid2D(256, 256, 48.0, 48.0)
out = {}
with scipy.fft.set_workers(int(sys.argv[1])):
    ground = solve_ground_state(g, 1.0, -1.0, 1.0)
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
        (blas, fft): run_child(LINEARIZED, fft, OPENBLAS_NUM_THREADS=str(blas))
        for blas in (1, 2) for fft in (1, 2)
    }
    reference = runs[1, 1]
    assert reference["GY"]["iterations"] > 0 and reference["HZ"]["iterations"] > 0
    for threads, got in runs.items():
        assert got == reference, threads


STEPPING = """
import hashlib, json, sys
import scipy.fft
from dsalpha import Grid2D, ModelKind, ModelSpec, StepControl, integrate
from dsalpha.harness import gaussian_state

g = Grid2D(128, 128, 32.0, 32.0)
spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.2)
starts = {"even": gaussian_state(g, 1.5, 1.0),
          "off_centre": gaussian_state(g, 1.5, 1.0, center=(0.5 * g.dx, 0.0))}
out = {}
for stepper in ("strang", "ifrk4"):
    for name, v0 in starts.items():
        ctrl = StepControl(dt=2e-3, dt_max=2e-3, adaptive=stepper == "strang", t_end=0.04,
                           stepper=stepper)
        with scipy.fft.set_workers(int(sys.argv[1])):
            run = integrate(v0, spec, ctrl, record_every=4)
        h = hashlib.sha256(run.final_state.values.tobytes())
        for r in run.records:
            h.update(repr(sorted(vars(r).items())).encode())
        out[f"{stepper}-{name}"] = [run.steps, h.hexdigest()]
print(json.dumps(out))
"""


def test_stepping_does_not_depend_on_fft_workers():
    # even states step on the quarter grid (DCT-I), off-centre ones on the
    # full grid (complex and real FFTs); both steppers, 1 and 2 workers
    runs = [run_child(STEPPING, fft) for fft in (1, 2)]
    assert len(runs[0]) == 4 and all(steps == 20 for steps, _ in runs[0].values())
    assert runs[1] == runs[0]


# records the worker count of each transform a CLI subcommand makes
CLI_WORKERS = """
import json, sys
import scipy.fft
import dsalpha.cli

seen = set()
for name in ("fft2", "ifft2", "rfft2", "irfft2", "dctn"):
    def recorded(*args, _inner=getattr(scipy.fft, name), **kwargs):
        seen.add(kwargs.get("workers", scipy.fft.get_workers()))
        return _inner(*args, **kwargs)
    setattr(scipy.fft, name, recorded)
assert dsalpha.cli.main(["simulate", sys.argv[1]]) == 0
print(json.dumps(sorted(seen)))
"""


def test_cli_reads_fft_workers_from_the_environment(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN.format(out=tmp_path / "out"))
    assert run_child(CLI_WORKERS, cfg, DSALPHA_FFT_WORKERS="2") == [2]


def test_bad_fft_workers_exit_two(tmp_path):
    # import never reads the variable; the CLI rejects a value before any work.
    # Large values are not tried: they would start that many threads
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN.format(out=tmp_path / "out"))
    for value in ("abc", "1.5", "0"):
        assert run_python("-c", "import dsalpha", DSALPHA_FFT_WORKERS=value).returncode == 0
        done = run_python("-m", "dsalpha", "simulate", cfg, DSALPHA_FFT_WORKERS=value)
        assert done.returncode == 2, value
        assert done.stderr.splitlines() == [
            f"error: DSALPHA_FFT_WORKERS must be a nonzero integer, at least -{os.cpu_count()} "
            f"(-1: every CPU), got {value!r}"
        ]
        assert not (tmp_path / "out").exists()
