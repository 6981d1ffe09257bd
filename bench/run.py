"""Benchmark entry point: one workload, one seed.

    python3 bench/run.py --workload zero_sum_scan --seed 1 --seconds 40 --trace 0

Each pass over the job list runs in a fresh process (see harness.py).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
the traced passes.  Earlier lines give a readable table and a ``# meta``
line with the run's metadata.  The exit code is 0 only when every job's
output passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import harness
from workloads import WORKLOADS

OUT_DIR = os.path.join(harness.ROOT, ".bench_out")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    try:
        top = subprocess.run(["git", "-C", harness.ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(harness.ROOT):
        return "unknown"
    return lines[1]


def main(argv=None):
    args = parse_args(argv)
    spans_path = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.bin")
    run = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spans_path)
    if args.trace:
        metrics, percentile = harness.per_layer(run), None
    else:
        metrics, percentile = harness.end_to_end(run)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "jobs": len(run["passes"][0]["times"]),
        "passes": len(run["passes"]) + len(run["traced_passes"]),
        "pass_wall_median_s": statistics.median(p["wall_s"] for p in run["passes"]),
        "reference_mean_ms": 1000.0 * statistics.fmean(
            x for p in run["passes"] for gap in p["host"] for x in gap),
        "tail_percentile": percentile,
        "tail_jobs_beyond": harness.TAIL_BEYOND,
        "jobs_failed_frac": run["failed"] / run["attempted"],
        "setup_samples_s": [p["setup_s"] for p in run["passes"]],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(f"{'jobs_failed_frac':28s} {meta['jobs_failed_frac']:14.6g} ratio")
    for failure in run["failures"]:
        print(f"FAILED {failure}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if run["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
