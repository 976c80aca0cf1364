"""Benchmark of ndnet: fixed-work cross-validation, scene scoring, grad checks.

Run from the root of a checkout:

    python3 bench/run.py --workload crossval --seed 1 --seconds 20 --trace 0

It sets up the workload several times (the median is ``setup_s``), then
runs whole rounds of the workload's fixed work until ``--seconds`` would
be exceeded (at least one round), checks the first round's outputs
against an independent reference and repeats of the others against the
first, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` each round pair runs once untraced and once traced, and the
metrics are the per-layer ones plus the tracing overhead. Work files go
to ``.bench_out/`` in the checkout and are removed at the end; the spans
of a traced run stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("crossval", "scoring", "gradcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure(name, seed, seconds, trace, work_dir, sizes):
    """Set up, run rounds, check; returns the result object."""
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name](seed, sizes, work_dir)
    workload.prepare()
    setup_times, setup_training = [], []

    def set_up():
        start = time.perf_counter()
        setup_training.append(workload.setup())
        setup_times.append(time.perf_counter() - start)

    # Every set-up repeats the same work and leaves the same state. One
    # runs before each round and the rest after the last, so that a slow
    # spell of a shared machine does not catch all of them.
    set_up()
    attempted = failed = 0
    first = None
    mismatched = 0
    walls, traced_walls, step_rates, row_rates = [], [], [], []
    tracer = Tracer() if trace else None
    while True:
        for traced in ((False, True) if trace else (False,)):
            start = time.perf_counter()
            if traced:
                with tracer:
                    outputs, n_failed = workload.run_round()
            else:
                outputs, n_failed = workload.run_round()
            wall = time.perf_counter() - start
            attempted += workload.ops_per_round
            failed += n_failed
            if traced:
                traced_walls.append(wall)
            else:
                walls.append(wall)
                steps, rows = workload.work(outputs)
                if steps:
                    step_rates.append(steps / wall)
                row_rates.append(rows / wall)
            if first is None:
                first = outputs
            elif workload.fingerprint(outputs) != workload.fingerprint(first):
                mismatched += 1
        # --seconds bounds the measured time; set-ups between rounds are extra
        measured = sum(walls) + sum(traced_walls)
        round_s = (walls[-1] + traced_walls[-1]) if trace else walls[-1]
        if measured + round_s > seconds:
            break
        if not trace:
            set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not trace and len(setup_times) < workload.setup_repeats:
        set_up()

    failures = workload.check(first)
    if mismatched:
        failures.append(f"{mismatched} rounds gave other outputs than the first")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    if trace:
        n = len(traced_walls)
        metrics = {key: {"value": value / n,
                         "unit": "s" if key.endswith("_s") else "count"}
                   for key, value in tracer.summary().items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(t - u for t, u in zip(traced_walls, walls)),
            "unit": "s"}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.csv.gz")
    else:
        # Workloads whose measured phase runs no optimizer report the rate
        # of the training their set-ups run, pooled over all of them.
        if step_rates:
            train_rate = statistics.median(step_rates)
        else:
            steps, train_s = (sum(column) for column in zip(*setup_training))
            train_rate = steps / train_s
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "train_steps_per_s": {"value": train_rate, "unit": "1/s"},
            "scored_rows_per_s": {"value": statistics.median(row_rates), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ndnet" / "__init__.py").is_file():
        print(f"error: no ndnet sources under {SRC}", file=sys.stderr)
        return 2
    # Serial runs: one BLAS thread, no fold worker processes. Set before
    # numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("ND_THREADS", None)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from workloads import FULL

    work_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         str(work_dir), FULL)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
