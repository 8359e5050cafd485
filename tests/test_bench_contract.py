"""The benchmark's hooks into the package, checked by the test suite.

bench/ counts Petviashvili sweeps by wrapping ground_state.symmetrize_even
(its steps_per_s on the modulation workload is sweeps per second of the
solve), so a sweep that stops calling it makes that metric read 0 while
every physics check still passes.  This runs the traced smoke modulation
workload and compares its sweep count with the calls seen here on the same
solve, and with the sweeps GroundState.stages records.  It also runs every
workload of BENCHMARK.json untraced, as the benchmark command does, on the
smoke sizes: a package name that only an untraced run calls is checked too.
"""

import json
import os
import subprocess
import sys

import pytest

import dsalpha.ground_state as gs_mod
from dsalpha import Grid2D, solve_ground_state
from conftest import count_calls

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_command_runs_every_workload(workload):
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", "1", "--seconds", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"]


def test_traced_modulation_counts_every_sweep(monkeypatch):
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "modulation",
         "--seed", "1", "--seconds", "0", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"]
    sizes = next(json.loads(line.split(" ", 1)[1])["sizes"]
                 for line in lines if line.startswith("provenance "))

    # the workload's ground state: (beta, rho, nu) = (1, -1, 1) on its grid
    sweeps = count_calls(monkeypatch, gs_mod, "symmetrize_even")
    n, box = sizes["grid"], sizes["box"]
    gs = solve_ground_state(Grid2D(n, n, box, box), 1.0, -1.0, 1.0)
    assert len(sweeps) > 0
    assert result["metrics"]["ground_state.iterations"]["value"] == len(sweeps)
    # the solver's own statistics count the same sweeps, so the benchmark can
    # read them instead of the marker
    assert sum(s.sweeps for s in gs.stages) == len(sweeps)
