"""The benchmark's own tests: every workload, its checks and the tracer, at
smoke sizes.  Run with `python3 -m pytest bench/test_bench.py -q` (about a
minute); the repository's test suite does not collect them.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0",
                          "--trace", "0", "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 5
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_every_layer_metric(workload):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0",
                          "--trace", "1", "--smoke"))
    assert res["correct"]
    names = set(res["metrics"])
    layer = {m["name"] for m in SPEC["per_layer"] if not m["name"].startswith("kernel.")}
    assert layer <= names
    kernel = {n for n in names if n.startswith("kernel.")}
    # smoke sizes differ from the full table, so compare op x kind coverage
    assert {n.split(".")[1] for n in kernel} == {
        m["name"].split(".")[1] for m in SPEC["per_layer"] if m["name"].startswith("kernel.")}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["spectral.transform_calls"] > 0 and m["spectral.transform_s"] > 0
    if workload == "modulation":
        assert m["ground_state.iterations"] > 0 and m["stepping.steps"] == 0
        assert m["modulation.minres_iterations.GY"] > 0
        assert m["modulation.minres_iterations.HZ"] > 0
    else:
        assert m["stepping.steps"] > 0 and m["ground_state.iterations"] == 0
    if workload == "stepping":
        assert m["snapshots.write_bytes"] > 0 and m["snapshots.read.s"] > 0
        assert m["stepping.steps.dse"] > 0 and m["stepping.dt_levels"] > 1


def test_trace_counts_repeat_exactly_across_seeds():
    counts = []
    for seed in ("4", "5"):
        res = result_of(bench("--workload", "dichotomy", "--seed", seed, "--seconds", "0",
                              "--trace", "1", "--smoke"))
        counts.append({k: v["value"] for k, v in res["metrics"].items()
                       if v["unit"] in ("count", "B_computed")})
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_restores_the_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import scipy.fft

        import dsalpha
        import tracing
        from dsalpha import stepping

        before = (dsalpha.integrate, stepping.integrate, scipy.fft.fft2,
                  dsalpha.Grid2D.__init__)
        with tracing.Tracer() as tracer:
            assert dsalpha.integrate is stepping.integrate
            assert dsalpha.integrate is not before[0]
            dsalpha.Grid2D(8, 8, 1.0, 1.0)
        after = (dsalpha.integrate, stepping.integrate, scipy.fft.fft2,
                 dsalpha.Grid2D.__init__)
        assert after == before
        assert [s.name for s in tracer.spans] == ["grid.build"]
    finally:
        sys.path.remove(HERE)
        sys.path.remove(os.path.join(ROOT, "src"))


def test_computed_bytes_model():
    sys.path.insert(0, HERE)
    try:
        import kernels

        assert kernels.computed_bytes("fft2", "dse", 256, 0.5) == 32 * 256 * 256
        # the RDS3 potential does more passes than the DSE one
        assert (kernels.computed_bytes("potential_values", "rds3", 64, 0.5)
                > kernels.computed_bytes("potential_values", "dse", 64, 0.5))
    finally:
        sys.path.remove(HERE)
