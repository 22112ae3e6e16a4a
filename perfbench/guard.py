"""Determinism guard: sim-clock metrics and work counts repeat exactly.

Usage (from the repository root)::

    python3 perfbench/guard.py

For each workload it runs ``perfbench/run.py --trace 0`` twice on seed 11,
with different run lengths (so the runs complete different numbers of
rounds), and requires identical sim-clock latencies and identical counts
over the fixed window: simulation steps, network messages and bytes, WAL
records, record versions, replication shipments, dispatcher waves and
pipeline retries.  A third run on seed 12 must complete with its checks
passing.  Each run is a separate process, so anything that depends
on hash randomisation or on wall time shows up as a difference.
"""

from __future__ import annotations

import json
import os
import sys

from run import SIM_CLOCK
from sweep import HERE, WORKLOADS, run_once

SEED = 11
OTHER_SEED = 12


def deterministic(workload: str, seed: int, seconds: float) -> dict:
    result = run_once(workload, seed, seconds, 0)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed or "
                         f"operations failed: {result}")
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace0.json")
    with open(path) as handle:
        detail = json.load(handle)
    window = detail["runs"][0]["window"]
    return dict({name: detail["metrics"][name] for name in SIM_CLOCK},
                **{f"window.{name}": value for name, value in window.items()})


def main() -> int:
    differences = 0
    for workload in WORKLOADS:
        first = deterministic(workload, SEED, 1.0)
        second = deterministic(workload, SEED, 4.0)
        for name in sorted(first):
            if first[name] != second[name]:
                differences += 1
                print(f"{workload}: {name} differs between repeat runs: "
                      f"{first[name]!r} vs {second[name]!r}")
        other = deterministic(workload, OTHER_SEED, 1.0)
        print(f"{workload}: {len(first)} values repeat "
              f"{'exactly' if not differences else 'with differences'}; "
              f"seed {OTHER_SEED} passes its checks "
              f"(read_p99_ms {other['read_p99_ms']:.4g})")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
