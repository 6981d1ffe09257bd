"""Run every workload untraced and traced, and print one report.

    python3 bench/report.py

Each run is a fresh ``bench/run.py`` process at the default seed, measuring
for SECONDS seconds.  The report lists the six end-to-end metrics per
workload (``jobs_failed_frac`` is failed / attempted), then the per-layer
metrics of the traced runs, then the run metadata.  Exits non-zero when any
job failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import DEFAULT_SEED, WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SECONDS = 40


def run_one(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(DEFAULT_SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    meta = next((json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta ")), None)
    if not lines or meta is None:
        raise SystemExit(f"error: {workload} trace {trace} produced no result\n{proc.stderr}")
    return json.loads(lines[-1]), meta


def main():
    report = {}
    for workload in WORKLOADS:
        report[workload] = {trace: run_one(workload, trace) for trace in (0, 1)}

    print("end-to-end (untraced runs)")
    print(f"{'metric':22s} {'unit':6s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    names = list(report[WORKLOADS[0]][0][0]["metrics"])
    for name in names:
        unit = report[WORKLOADS[0]][0][0]["metrics"][name]["unit"]
        row = "".join(f"{report[w][0][0]['metrics'][name]['value']:16.6g}" for w in WORKLOADS)
        print(f"{name:22s} {unit:6s}{row}")
    row = "".join(f"{report[w][0][0]['failed'] / report[w][0][0]['attempted']:16.6g}" for w in WORKLOADS)
    print(f"{'jobs_failed_frac':22s} {'ratio':6s}{row}")
    row = "".join(f"{'p%.1f of %d' % (report[w][0][1]['tail_percentile'], report[w][0][1]['jobs']):>16s}"
                  for w in WORKLOADS)
    print(f"{'  job_tail_ms at':29s}{row}")

    print("\nper layer (traced runs, median over traced passes)")
    names = list(report[WORKLOADS[0]][1][0]["metrics"])
    for name in names:
        unit = report[WORKLOADS[0]][1][0]["metrics"][name]["unit"]
        row = "".join(f"{report[w][1][0]['metrics'][name]['value']:16.6g}" for w in WORKLOADS)
        print(f"{name:28s} {unit:6s}{row}")

    print("\nmetadata")
    for workload in WORKLOADS:
        print(f"{workload}: " + json.dumps(report[workload][0][1], sort_keys=True))
    failed = sum(report[w][t][0]["failed"] for w in WORKLOADS for t in (0, 1))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
