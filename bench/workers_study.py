"""Interleaved 1- vs 2-worker pairs of the `dichotomy` workload.

Tests the claim in tests/conftest.py that two FFT workers "roughly halve" the
large-grid runs.  Each pair runs the benchmark once per worker count, in
separate processes, alternating which goes first; the summary gives each
side's median and quartiles of wall_s and steps_per_s, and the per-pair
ratio of 2-worker to 1-worker wall time.

    python3 bench/workers_study.py --pairs 8
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workers, seed, smoke):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "dichotomy",
           "--seed", str(seed), "--seconds", "1", "--trace", "0",
           "--fft-workers", str(workers)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"checks failed with {workers} workers, seed {seed}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pairs", type=int, default=8)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    runs = {1: [], 2: []}
    ratios = []
    for i in range(args.pairs):
        order = (1, 2) if i % 2 == 0 else (2, 1)
        pair = {w: run_once(w, 1000 + i, args.smoke) for w in order}
        for w in order:
            runs[w].append(pair[w])
        ratios.append(pair[2]["wall_s"] / pair[1]["wall_s"])
        print(f"pair {i} order {order}: wall_s 1w {pair[1]['wall_s']:.3f} "
              f"2w {pair[2]['wall_s']:.3f} ratio {ratios[-1]:.3f}", flush=True)
    out = {
        f"{w}_workers": {m: summary([r[m] for r in runs[w]]) for m in ("wall_s", "steps_per_s")}
        for w in (1, 2)
    }
    out["wall_ratio_2w_over_1w"] = summary(ratios)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
