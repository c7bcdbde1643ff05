#!/usr/bin/env python3
"""maslovlab benchmark: four workloads, every output checked, one JSON line.

Run from the repository root; maslovlab need not be installed:

    python3 bench/run.py --workload pair_paths --seed 1 --seconds 20 --trace 0

Without ``--workload`` the four workloads run one after another in this
process. A run times ``build`` (the set-up) several times, runs one
untimed round with the cyclic garbage collector paused for the peak
memory, then repeats timed rounds of the workload's batch while the
next round still fits in ``--seconds`` (always at least one); item times
are calibrated for the machine's speed (see ``calibration.py``). With
``--trace 1`` it runs one untraced round, then traced rounds, and
reports per-layer metrics instead of end-to-end ones; spans go to
``bench/out/``. The last line
of standard output is the result as JSON.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads; one never exceeds the CPU count.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in BLAS_VARIABLES:
    os.environ[_variable] = BLAS_THREADS
os.environ.pop("MASLOVLAB_SEED", None)

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("pair_paths", "varying_forms", "reduction_c16", "spectral_flow")
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, scipy.linalg, scipy.optimize, scipy.integrate, maslovlab.cli; "
    "print(time.perf_counter() - t)"
)
UNITS = {
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "user_evals": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def seed_value(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return seed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=seed_value, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Import time of numpy, scipy and maslovlab in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(done.stdout.strip())


def run_round(items, calibration=None):
    """(wall seconds, per-item seconds, failures) of one pass over the batch."""
    times, failures = [], []
    start = time.perf_counter()
    for item in items:
        t = time.perf_counter()
        failure = item.run()
        times.append(time.perf_counter() - t)
        if failure is not None:
            failures.append(failure)
        if calibration is not None:
            calibration.after_item(times[-1])
    return time.perf_counter() - start, times, failures


def memory_round(items):
    """(peak resident MB, failures) of one untimed round with the cyclic collector paused.

    With the collector running, the peak depends on when a full
    collection happens to fall: reduction_c16 leaves about 5 MB of
    cyclic garbage per item, and its peak moved by 25 MB with the item
    order and the number of rounds. Paused, the peak counts every byte
    a round allocates and leaves to the collector, whatever the order.
    The round also warms every cache before the timed rounds.
    """
    gc.collect()
    gc.disable()
    try:
        _, _, failures = run_round(items)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        gc.enable()
        gc.collect()
    return peak, failures


def run_workload(name, args, import_s, workdir):
    import calibration as calibrate
    import spans
    import workloads

    notes = []
    calls = workloads.Calls()
    build = workloads.WORKLOADS[name]
    build_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        items = build(args.seed, calls, workdir)
        build_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(build_times)

    if args.trace:
        untraced_s, _, failures = run_round(items)
        rounds = [(untraced_s, failures)]
        tracer = spans.Tracer()
        tracer.install()
        traced_walls = []
        try:
            while True:
                wall, _, failures = run_round(items)
                traced_walls.append(wall)
                rounds.append((wall, failures))
                if untraced_s + sum(traced_walls) + wall > args.seconds:
                    break
        finally:
            tracer.uninstall()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace_{name}_seed{args.seed}.csv"))
        for missing in tracer.missing:
            print(f"warning: {missing} not found in maslovlab; its metrics read 0", file=sys.stderr)
        overhead = statistics.mean(traced_walls) - untraced_s
        metrics = tracer.metrics(len(traced_walls), overhead)
        values = {m: {"value": v, "unit": spans.metric_unit(m)} for m, v in metrics.items()}
    else:
        start = time.perf_counter()
        peak_rss_mb, failures = memory_round(items)
        rounds = [(None, failures)]
        calibration = calibrate.Calibration()
        all_times = []
        while True:
            wall, times, failures = run_round(items, calibration)
            rounds.append((wall, failures))
            all_times += times
            if time.perf_counter() - start + wall > args.seconds:
                break
        wall_rate = len(all_times) / sum(all_times)
        wall_p50_ms = 1000.0 * statistics.median(all_times)
        scale = calibration.scale()
        notes.append(
            f"calibration scale {scale:.4f} (kernel {1e3 * calibration.kernel_s / calibration.kernel_calls:.4f} ms "
            f"over {calibration.kernel_calls} calls); uncalibrated items_per_s {wall_rate:.6g}, "
            f"item_p50_ms {wall_p50_ms:.6g}"
        )
        metrics = {
            "items_per_s": wall_rate / scale,
            "item_p50_ms": wall_p50_ms * scale,
            "user_evals": calls.n / len(rounds),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        values = {m: {"value": v, "unit": UNITS[m]} for m, v in metrics.items()}

    failures = [f for _, round_failures in rounds for f in round_failures]
    return {
        "attempted": len(items) * len(rounds),
        "failed": len(failures),
        "correct": all(f.known for f in failures),
        "rounds": len(rounds),
        "failures": sorted({f.message for f in failures}),
        "notes": notes,
        "metrics": values,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [SRC, BENCH_DIR]
    try:
        import maslovlab.cli  # noqa: F401  (fails fast outside a checkout)
        import workloads  # noqa: F401
    except ImportError as exc:
        print(f"cannot import maslovlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    blas = f"blas threads {BLAS_THREADS} ({', '.join(BLAS_VARIABLES)}), nproc {os.cpu_count()}"
    for name, res in results.items():
        print(f"{name}: seed {args.seed}, {res['rounds']} rounds, attempted {res['attempted']}, "
              f"failed {res['failed']}, correct {res['correct']}, {blas}")
        for message in res["failures"]:
            print(f"  failed: {message}")
        for note in res["notes"]:
            print(f"  {note}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{name}.{m}": e for name, res in results.items() for m, e in res["metrics"].items()}
    print(json.dumps({
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
