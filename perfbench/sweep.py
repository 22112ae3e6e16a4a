"""Run the benchmark over several seeds and summarise the spread.

Usage (from the repository root)::

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 \
        --out perfbench/out/parent.jsonl

Each run is a fresh ``perfbench/run.py`` process of ``run_seconds`` from
``BENCHMARK.json``, for every workload listed there in turn, one run at a
time.  Every result line is appended to ``--out`` as
``{"workload", "seed", "trace", "result"}``; the summary prints, per
workload and metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  Runs whose checks failed
are reported and make the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])


def seeds_from(text: str) -> List[int]:
    """``"1-10"`` or ``"3,5,8"``."""
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def quartiles(values: List[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def load(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def by_metric(lines: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, in run order."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for line in lines:
        metrics = table.setdefault(line["workload"], {})
        for name, metric in line["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return table


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarise(lines: List[dict]) -> None:
    for workload, metrics in by_metric(lines).items():
        runs = [line for line in lines if line["workload"] == workload]
        failed = sum(line["result"]["failed"] for line in runs)
        attempted = sum(line["result"]["attempted"] for line in runs)
        print(f"{workload}: {len(runs)} runs, {failed} of {attempted} "
              f"operations failed")
        for name, values in sorted(metrics.items()):
            q1, median, q3 = quartiles(values)
            print(f"  {name:44s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread(values):7.2%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    lines = []
    bad = 0
    for workload in WORKLOADS:
        for seed in seeds_from(args.seeds):
            start = time.perf_counter()
            result = run_once(workload, seed, BENCHMARK["run_seconds"],
                              args.trace)
            line = {"workload": workload, "seed": seed, "trace": args.trace,
                    "result": result}
            lines.append(line)
            with open(args.out, "a") as handle:
                handle.write(json.dumps(line, sort_keys=True) + "\n")
            bad += not result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    summarise(lines)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
