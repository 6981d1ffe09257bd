"""Record the pinned result digests from the current sources.

    python3 bench/pin.py

Runs one untraced pass of every workload at the default seed, checks each
result against the seed-independent facts, and writes ``bench/pinned.json``.
Refuses to write when any job fails.  Re-pinning is only right when a
change to the library is meant to change results.
"""

import json
import sys

import harness
from checks import PINNED_PATH
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs


def main():
    digests = {}
    for workload in WORKLOADS:
        jobs = make_jobs(workload, DEFAULT_SEED)
        result = harness.run_pass(workload, jobs, {})
        if result["failed"]:
            print("\n".join(result["failures"]), file=sys.stderr)
            return 1
        digests.update(zip((job["key"] for job in jobs), result["digests"]))
        print(f"{workload}: {len(jobs)} jobs pinned")
    with open(PINNED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "digests": dict(sorted(digests.items()))}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
