"""Tests of the benchmark itself (not of factorinv).

    python3 -m pytest bench/tests -q
"""

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import harness  # noqa: E402
from spans import LAYERS, PER_LAYER, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs  # noqa: E402


def tiny_run(workload, tracer=None, pins=None, seed=DEFAULT_SEED):
    """One in-process pass over the workload's cheap jobs."""
    jobs = make_jobs(workload, seed, tiny=True)
    pins = checks.load_pins() if pins is None else pins
    return jobs, harness.run_pass(workload, jobs, pins, tracer)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload):
    jobs, result = tiny_run(workload)
    assert jobs and result["failed"] == 0, result["failures"]
    assert len(result["times"]) == len(jobs) and all(result["digests"])
    assert 0 < sum(result["times"]) <= result["wall_s"]


def bench_run(trace):
    """The benchmark's entry point on lattice_cli, for the shortest run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "lattice_cli",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    meta = json.loads(next(l for l in lines if l.startswith("# meta "))[len("# meta "):])
    return json.loads(lines[-1]), meta


def test_untraced_run_prints_every_end_to_end_metric():
    result, meta = bench_run(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == meta["jobs"] * meta["passes"]
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(meta["setup_samples_s"]) == meta["passes"]
    assert 0 < meta["tail_percentile"] <= 100


def test_traced_run_prints_every_layer_metric():
    result, meta = bench_run(1)
    assert result["correct"] and meta["passes"] >= 2
    assert set(result["metrics"]) == {name for name, _ in PER_LAYER} | {"trace.overhead_ratio"}
    assert result["metrics"]["chains.chains"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_jobs_are_pinned(workload):
    pins = checks.load_pins()
    assert all(job["key"] in pins for job in make_jobs(workload, DEFAULT_SEED, tiny=True))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    first = json.dumps(make_jobs(workload, 7))
    assert json.dumps(make_jobs(workload, 7)) == first
    assert json.dumps(make_jobs(workload, 8)) != first


def _entry_points():
    """Identity snapshot of every attribute the tracer may replace."""
    harness.import_library()
    snapshot = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "factorinv" or name.startswith("factorinv.")):
            continue
        for attr, value in vars(module).items():
            snapshot[(name, attr)] = value
            if isinstance(value, type):
                for member, raw in vars(value).items():
                    snapshot[(name, attr, member)] = raw
    return snapshot


def test_wrappers_are_restored_after_a_traced_run():
    before = _entry_points()
    tracer = Tracer()
    tracer.install()
    assert any(before[key] is not value for key, value in _entry_points().items())
    tracer.uninstall()
    _, result = tiny_run("krull_transfer", tracer=Tracer())
    assert result["failed"] == 0, result["failures"]
    after = _entry_points()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_every_layer_metric(workload):
    _, result = tiny_run(workload, tracer=Tracer())
    assert result["failed"] == 0, result["failures"]
    layers = result["layers"]
    assert set(layers) == {name for name, _ in PER_LAYER} | {"wall_s"}
    total_self = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert 0 < total_self <= layers["wall_s"]


def test_traced_counts_match_the_library():
    _, result = tiny_run("krull_transfer", tracer=Tracer())
    counts = result["layers"]
    assert counts["krull.splits_checked"] == counts["krull.lift_calls"] > 0
    assert counts["factorize.membership_tests"] >= counts["factorize.members"] > 0


def test_corrupted_pin_counts_as_failed_job():
    jobs = make_jobs("zero_sum_scan", DEFAULT_SEED, tiny=True)
    pins = checks.load_pins()
    victim = jobs[0]["key"]
    pins[victim] = "0" * 16
    _, result = tiny_run("zero_sum_scan", pins=pins)
    assert result["failed"] == 1
    assert result["failures"][0].startswith(victim)
    assert result["digests"][0] is None and all(result["digests"][1:])


def test_tail_has_ten_jobs_beyond():
    value, percentile = harness.tail(list(range(100)))
    assert value == 89 and percentile == 90.0
    assert harness.tail([3.0, 1.0]) == (3.0, 100.0)


def test_job_times_do_not_depend_on_host_speed():
    quiet = {"times": [0.010, 0.030], "host": [[0.0002] * 3] * 3, "setup_s": 0.1}
    busy = {"times": [0.020, 0.060], "host": [[0.0004] * 3] * 3, "setup_s": 0.2}
    assert harness.job_times([quiet]) == pytest.approx([0.010, 0.030])
    assert harness.job_times([busy]) == pytest.approx(harness.job_times([quiet]))
    assert harness.job_times([quiet, busy, busy]) == pytest.approx([0.010, 0.030])
    assert harness.setup_times([busy]) == pytest.approx(harness.setup_times([quiet]))


def test_reference_loop_leaves_the_collector_as_it_was():
    assert len(harness.host_samples()) == harness.HOST_SAMPLES
    gc.disable()
    try:
        harness.host_samples()
        assert not gc.isenabled()
    finally:
        gc.enable()
    harness.host_samples()
    assert gc.isenabled()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
