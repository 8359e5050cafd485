"""dsalpha benchmark: one workload per process, physics checked before timing counts.

    python3 bench/run.py --workload stepping --seed 1 --seconds 55 --trace 0

--trace 0 prints the end-to-end metrics (wall_s, setup_s, steps_per_s,
peak_rss_mb; failed_frac on its own line).  --trace 1 runs one untraced and one
traced pass of the workload, prints the per-layer metrics and the kernel
table, and reports the tracing overhead.  --smoke shrinks every workload and
the kernel table so the whole path runs in seconds.  The last line of stdout
is always the JSON result; see bench/NOTES.md.
"""

import time

# set-up time counts from here, so every other import comes after this line
T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
KERNEL_SIZES = (256, 512, 1280)
SMOKE_KERNEL_SIZES = (32, 64)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("stepping", "modulation", "dichotomy", "persistence"),
                   help="stepping and modulation are the benchmark's workloads; "
                        "dichotomy and persistence are the two parts of stepping")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole workload units for this long (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the bench's own tests")
    p.add_argument("--fft-workers", type=int, default=1,
                   help="DSALPHA_FFT_WORKERS for this process (the package default is 1)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def bootstrap(args):
    """Pin the FFT workers, then import dsalpha from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "dsalpha", "__init__.py")):
        sys.exit(f"bench: no dsalpha package under {SRC}; run from a full checkout")
    os.environ["DSALPHA_FFT_WORKERS"] = str(args.fft_workers)
    # OpenBLAS otherwise starts a thread per vCPU for MINRES's dot products,
    # which spin between calls; one compute thread means one BLAS thread too
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import dsalpha

    if os.path.dirname(os.path.abspath(dsalpha.__file__)) != os.path.join(SRC, "dsalpha"):
        sys.exit(f"bench: imported dsalpha from {dsalpha.__file__}, not from {SRC}")


def provenance(args, wl):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dsalpha")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "DSALPHA_FFT_WORKERS": os.environ.get("DSALPHA_FFT_WORKERS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "sizes": wl.sizes(),
    }


def git_commit():
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probe_times(args):
    """setup_s samples: fresh interpreters, process start to the first timed call."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--fft-workers", str(args.fft_workers)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds, checks_for):
    """Run whole units until the next would overrun `seconds`; at least one.

    Returns (units, Checks per unit, peak RSS in MB after the first unit).  A
    user's process runs one unit, and later units in the same process can
    raise the peak through heap fragmentation, so the peak is read after the
    first.  An exception fails every check left in the run and ends it.
    """
    units, all_checks = [], []
    first_peak = None
    start = time.perf_counter()
    while True:
        checks = checks_for()
        all_checks.append(checks)
        try:
            unit = wl.run()
            units.append(unit)
            if first_peak is None:
                first_peak = peak_rss_mb()
            wl.check(unit, checks)
        except Exception:
            traceback.print_exc()
            checks.fail_remaining("exception")
            break
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(u.wall_s for u in units) > seconds:
            break
    return units, all_checks, first_peak or peak_rss_mb()


def print_checks(all_checks):
    for i, checks in enumerate(all_checks):
        for name in checks.names:
            ok, detail = checks.results[name]
            print(f"  check[{i}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def main(argv=None):
    args = parse_args(argv)
    bootstrap(args)
    import workloads

    wl = workloads.make(args.workload, args.seed, args.smoke, ROOT)
    if args.setup_probe:
        wl.setup()
        print(repr(time.perf_counter() - T_START))
        return 0

    checks_for = lambda: workloads.Checks(wl.CHECKS)
    prov = provenance(args, wl)
    print("provenance " + json.dumps(prov, sort_keys=True))

    if args.trace:
        metrics, all_checks = traced(args, wl, checks_for)
    else:
        setup_samples = setup_probe_times(args)
        wl.setup()
        units, all_checks, peak = measure(wl, args.seconds, checks_for)
        metrics = end_to_end(units, setup_samples, peak)
        print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
        print(f"  unit wall (s): {', '.join(f'{u.wall_s:.4f}' for u in units)}")

    attempted = sum(len(c.names) for c in all_checks)
    failed = sum(c.failed for c in all_checks)
    print_checks(all_checks)
    if not args.trace:
        print(f"  failed_frac {failed / attempted:.6g} 1  ({failed} of {attempted} checks)")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(units, setup_samples, peak):
    if units:
        wall = statistics.median(u.wall_s for u in units)
        rate = statistics.median(u.steps / u.step_s for u in units)
    else:
        wall = time.perf_counter() - T_START
        rate = 0.0
    return {
        "wall_s": _metric(wall, "s"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "steps_per_s": _metric(rate, "1/s"),
        "peak_rss_mb": _metric(peak, "MB"),
    }


def one_pass(wl, checks, tracer=None):
    """set-up and one unit, optionally under the tracer; checks run untraced.

    Returns the pass's wall time (set-up plus the program calls).
    """
    t0 = time.perf_counter()
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            wl.setup()
            unit = wl.run()
            wall = time.perf_counter() - t0
        wl.check(unit, checks)
    except Exception:
        traceback.print_exc()
        checks.fail_remaining("exception")
        wall = time.perf_counter() - t0
    return wall


def traced(args, wl, checks_for):
    """The kernel table, then one untraced pass and one traced pass.

    The kernel table goes first: its large arrays warm the allocator, so
    neither pass pays that cost and the overhead compares like with like.
    """
    import kernels
    import tracing
    import workloads

    sizes = SMOKE_KERNEL_SIZES if args.smoke else KERNEL_SIZES
    reps = lambda n: 3 if n >= 1024 else (7 if n >= 512 else 15)
    layers = kernels.kernel_table(sizes, reps, workloads.GROUND_MASS)

    plain_checks, traced_checks = checks_for(), checks_for()
    plain_wall = one_pass(wl, plain_checks)
    tracer = tracing.Tracer()
    traced_wall = one_pass(wl, traced_checks, tracer)
    layers.update(tracing.layer_metrics(tracer.spans))
    layers["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    print(f"  trace: {len(tracer.spans)} spans; untraced pass {plain_wall:.4f} s, "
          f"traced pass {traced_wall:.4f} s")
    metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
    return metrics, [plain_checks, traced_checks]


if __name__ == "__main__":
    sys.exit(main())
