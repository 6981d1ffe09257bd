"""Runs one workload as a closed loop: one client, one job at a time.

A run repeats passes over the workload's job list until its time is up.
Every pass is a fresh process (``python3 bench/harness.py --workload W
--seed N --trace 0|1``), as a CLI call would be, so no cache outlives a pass
and a later pass cannot gain from an earlier one.  The time from starting a
pass process to its first job is one set-up sample.  A traced run alternates
untraced and traced passes, so the tracing overhead is measured within one
run.  Every result of every pass is checked after the pass, outside the
timed region.

The host is shared.  Other tenants' load slows the core in bursts, by about
1.7 times, for a share of the time that drifts between about a tenth and
two thirds over seconds to minutes, and the undisturbed speed drifts too.
A job's raw time therefore says as much about the host as about the
library.  Between every two jobs a pass times a fixed reference loop
(``reference``) HOST_SAMPLES times; it calls no library code, so only the
host changes its time.  A job's reported time is its raw time divided by
the mean reference time just before and after it, in units of REFERENCE_S:
its time at the host speed where the loop takes REFERENCE_S.  Each job's
figure is the median of these over the run's passes.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
from spans import PER_LAYER, Tracer
from workloads import WORKLOADS, make_jobs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TAIL_BEYOND = 10  # jobs beyond the tail percentile
HOST_SAMPLES = 24  # timings of the reference loop between two jobs
# the reference loop's mean time on the reference host; times are reported
# at the host speed where the loop takes this long
REFERENCE_S = 0.0002


def import_library():
    """Import factorinv from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "factorinv", "__init__.py")):
        raise SystemExit(f"error: no factorinv sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import factorinv
    import factorinv.cli

    where = os.path.dirname(os.path.abspath(factorinv.__file__))
    if where != os.path.join(SRC, "factorinv"):
        raise SystemExit(f"error: factorinv was imported from {where}, not from {SRC}")
    return factorinv


def _run_zero_sum(fi, job):
    group = fi.make_group(job["orders"])
    if job["op"] == "davenport":
        return fi.davenport(group)
    monoid = fi.BlockMonoid(group, fi.subset_nonzero(group))
    if job["op"] == "atoms":
        return monoid.atoms()
    return getattr(monoid.presented(), job["op"])(job["bound"])


def _run_krull(fi, job):
    group = fi.make_group(job["orders"])
    classes = {p: tuple(c) for p, c in job["classes"].items()}
    monoid = fi.make_krull(group, job["primes"], classes)
    return monoid.verify_transfer(job["bound"]), monoid.fiber_catenary(job["bound"])


def _run_cli(fi, job):
    out = io.StringIO()
    code = fi.cli.run(job["argv"], out=out)
    return code, out.getvalue()


RUNNERS = {
    "zero_sum_scan": _run_zero_sum,
    "krull_transfer": _run_krull,
    "lattice_cli": _run_cli,
}


def tail(values):
    """(value, percentile) at the highest percentile with at least
    TAIL_BEYOND values beyond it; the maximum when there are fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def reference():
    """A fixed loop of the tuple, dict, set and integer work the library does
    most, 0.15-0.19 ms on an undisturbed core of the reference host.  It calls
    no library code."""
    counts = {}
    for a in range(24):
        for b in range(24):
            key = (a, b, (a * b) % 7)
            counts[key] = counts.get(key, 0) + (a ^ b)
    residues = {key[2] for key in counts}
    return max(counts.items()), len(residues)


def host_samples():
    """HOST_SAMPLES timings of ``reference``, with the collector off so that
    the library's heap cannot lengthen them."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(HOST_SAMPLES):
            start = time.perf_counter()
            reference()
            samples.append(time.perf_counter() - start)
        return samples
    finally:
        if collecting:
            gc.enable()


def run_pass(workload, jobs, pins, tracer=None):
    """One timed pass over ``jobs`` in this process, then its checks; with
    ``tracer``, the pass runs with the span wrappers installed.

    Returns the pass wall time, each job's raw time and result digest (None
    for a job that failed), the reference samples taken before the first job
    and after each job, the failure messages, the failed job count and, with
    ``tracer``, the pass's layer metrics.
    """
    fi = import_library()
    runner = RUNNERS[workload]
    results, times, host = [], [], []
    if tracer:
        tracer.reset()
        tracer.install()
    try:
        pass_start = time.perf_counter()
        host.append(host_samples())
        for job in jobs:
            job_start = time.perf_counter()
            try:
                results.append((runner(fi, job), None))
            except Exception as exc:  # a failing job is counted, not fatal
                results.append((None, f"{type(exc).__name__}: {exc}"))
            times.append(time.perf_counter() - job_start)
            host.append(host_samples())
        wall = time.perf_counter() - pass_start
    finally:
        if tracer:
            tracer.uninstall()
    digests, failures = [], []
    for job, (result, error) in zip(jobs, results):
        found = [error] if error else checks.problems(workload, job, result)
        got = None if error else checks.digest(checks.canonical(workload, job, result))
        if got and job["key"] in pins and pins[job["key"]] != got:
            found.append(f"digest {got} != pinned {pins[job['key']]}")
        digests.append(None if found else got)
        if found:
            failures.append(f"{job['key']}: {'; '.join(found)}")
    return {
        "wall_s": wall,
        "times": times,
        "host": host,
        "digests": digests,
        "failed": len(failures),
        "failures": failures[:20],
        "layers": dict(tracer.metrics(), wall_s=wall) if tracer else None,
    }


def _pass_process(workload, seed, traced, spans_path):
    """Run one pass in a fresh process; returns its set-up time and result."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced))]
    if traced and spans_path:
        argv += ["--spans", spans_path]
    began = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    with child:
        ready = child.stdout.readline()
        setup = time.perf_counter() - began
        lines = child.stdout.read().splitlines()
        code = child.wait()
    if code != 0 or ready.strip() != "ready" or not lines:
        raise SystemExit(f"error: the {workload} pass process exited with code {code}")
    return setup, json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, spans_path=None):
    """Run passes over the ``seed`` job list for about ``seconds`` seconds:
    at least one pass, and with ``trace`` at least one untraced and one
    traced pass.  The spans of the last traced pass go to ``spans_path``.

    Returns the untraced and the traced passes, each with its raw job times,
    reference samples, set-up time and peak memory; the per-pass layer
    metrics of the traced passes; and the attempted and failed job counts
    with the first failure messages.
    """
    modes = (False, True) if trace else (False,)
    passes = {False: [], True: []}
    layer_passes, failures = [], []
    first_digests: dict[int, str] = {}
    attempted = failed = 0
    started = time.perf_counter()
    count = 0
    while True:
        traced = modes[count % len(modes)]
        setup, result = _pass_process(workload, seed, traced, spans_path)
        result["setup_s"] = setup
        passes[traced].append(result)
        if traced:
            layer_passes.append(result["layers"])
        attempted += len(result["times"])
        failed += result["failed"]
        failures.extend(result["failures"])
        differs = sum(1 for index, got in enumerate(result["digests"])
                      if got and first_digests.setdefault(index, got) != got)
        if differs:
            failed += differs
            failures.append(f"pass {count + 1}: {differs} results differ from the first pass")
        count += 1
        elapsed = time.perf_counter() - started
        every = [p["wall_s"] for p in passes[False] + passes[True]]
        if count >= len(modes) and elapsed + 0.5 * statistics.median(every) >= seconds:
            break
    return {
        "passes": passes[False],
        "traced_passes": passes[True],
        "layer_passes": layer_passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
    }


def job_times(passes):
    """Each job's time at the nominal host speed: its raw time scaled by
    REFERENCE_S over the mean reference time just before and after it, the
    median over ``passes``."""
    scaled = []
    for one in passes:
        level = [statistics.fmean(gap) for gap in one["host"]]
        scaled.append([2.0 * t * REFERENCE_S / (level[j] + level[j + 1])
                       for j, t in enumerate(one["times"])])
    return [statistics.median(column) for column in zip(*scaled)]


def setup_times(passes):
    """Each pass's set-up time at the nominal host speed, scaled by the
    reference samples taken right after it, before the first job."""
    return [one["setup_s"] * REFERENCE_S / statistics.fmean(one["host"][0]) for one in passes]


def end_to_end(run):
    """The end-to-end metrics of an untraced run, plus the tail's position."""
    times = job_times(run["passes"])
    job_ms = [1000.0 * t for t in times]
    tail_ms, percentile = tail(job_ms)
    metrics = {
        "wall_s": (sum(times), "s"),
        "job_p50_ms": (statistics.median(job_ms), "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in run["passes"]), "MB"),
        "setup_s": (statistics.median(setup_times(run["passes"])), "s"),
    }
    return metrics, percentile


def per_layer(run):
    """Median over traced passes of each layer metric, and the overhead."""
    passes = run["layer_passes"]
    metrics = {name: (statistics.median(p[name] for p in passes), unit) for name, unit in PER_LAYER}
    ratio = sum(job_times(run["traced_passes"])) / sum(job_times(run["passes"]))
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics


def main(argv=None):
    """One pass in this process: import the library and build the inputs,
    say ``ready``, run the pass and print its result as one JSON line."""
    parser = argparse.ArgumentParser(description="Run one pass of a workload; see bench/run.py.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced pass's spans to this file")
    args = parser.parse_args(argv)
    import_library()
    jobs = make_jobs(args.workload, args.seed)
    pins = checks.load_pins()
    tracer = Tracer() if args.trace else None
    print("ready", flush=True)
    result = run_pass(args.workload, jobs, pins, tracer)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
