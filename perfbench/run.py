"""Run one workload of the UDR benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload signalling_steady --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` first runs the workload untraced for a third of the budget
(sim-clock latencies, work counts, tracemalloc memory), then installs the
span tracer on a fresh deployment and runs a third traced; it prints the
per-layer metrics, the tracing overhead, and writes the spans to
``perfbench/out/spans-<workload>-seed<seed>.jsonl`` (the first
``tracer.SPAN_LIMIT``; it says how many more were not kept).

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record of the run is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.  The exit code is 0
only when the run completed; a run whose checks failed still prints its
result, with ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402  (the benchmark's own modules)
import workloads  # noqa: E402

#: Unit and better-direction of every metric, end-to-end then per-layer;
#: BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "load_rate": ("subscribers/s", "higher"),
    "ops_per_s": ("ops/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
SIM_CLOCK = {
    "read_p50_ms": ("ms", "lower"),
    "read_p99_ms": ("ms", "lower"),
    "write_p99_ms": ("ms", "lower"),
    "provision_p99_ms": ("ms", "lower"),
    "drain_s": ("s", "lower"),
}
PER_LAYER = dict(
    {f"{layer}.self_s": ("s/op", "lower") for layer in tracing.LAYERS},
    **{
        "unattributed_s": ("s/op", "lower"),
        "api.submit_s": ("s/op", "lower"),
        "dispatcher.order_s": ("s/op", "lower"),
        "dispatcher.tickets_examined_per_dispatched": ("count", "lower"),
        "dispatcher.mean_wave": ("count", "higher"),
        "pipeline.retries": ("count", "lower"),
        "api.resent": ("count", "lower"),
        "ldap.dn_s": ("s/op", "lower"),
        "directory.register_s": ("s/op", "lower"),
        "directory.locate_s": ("s/op", "lower"),
        "storage.capacity_check_s": ("s/op", "lower"),
        "storage.keys_scanned_per_placement": ("count", "lower"),
        "storage.apply_s": ("s/op", "lower"),
        "storage.size_calls_per_apply": ("count", "lower"),
        "storage.versions_per_record": ("count", "lower"),
        "storage.wal_records": ("count", "lower"),
        "replication.records_per_shipment": ("count", "higher"),
        "net.messages_per_op": ("count", "lower"),
        "net.bytes_per_op": ("bytes", "lower"),
        "sim.events_per_op": ("count", "lower"),
        "sim.us_per_event": ("us", "lower"),
        "mem.retained_bytes_per_write": ("bytes", "lower"),
        "mem.retained_bytes_per_subscriber": ("bytes", "lower"),
        "trace.overhead_pct": ("%", "lower"),
    },
    **SIM_CLOCK,
)

CAPACITY = tracing.CAPACITY_CHECK
ORDER = "repro.core.pipeline.BatchAdmissionStage.order"
APPLY = "repro.storage.engine.RecordStore.apply_version"
SIZE = "repro.storage.records.RecordVersion.size"
REGISTER = "repro.core.deployment.Deployment.register_identities"
SUBMIT = "repro.api.session.Session.submit"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def window_metrics(result) -> dict:
    """Deterministic metrics of the fixed window: identical for a seed."""
    window = result.window
    ops = window["ops"]
    metrics = dict(result.sim)
    metrics.update({
        "sim.events_per_op": _ratio(window["steps"], ops),
        "net.messages_per_op": _ratio(window["messages"], ops),
        "net.bytes_per_op": _ratio(window["bytes"], ops),
        "replication.records_per_shipment": _ratio(
            window["records_shipped"], window["shipments"]),
        "dispatcher.mean_wave": _ratio(window["dispatched"],
                                       window["waves"]),
        "pipeline.retries": window["retries"],
        "storage.versions_per_record": _ratio(window["versions"],
                                              window["records"]),
        "storage.wal_records": window["wal_records"],
    })
    return metrics


def traced_metrics(traced, tracer) -> dict:
    """Per-layer wall-time split of the traced run."""
    ops = traced.timed_ops
    by_layer = tracer.self_by_layer()
    metrics = {f"{layer}.self_s": seconds / ops
               for layer, seconds in by_layer.items()}
    metrics["unattributed_s"] = \
        (traced.timed_s - sum(by_layer.values())) / ops
    locate = sum(tracer.total(name) for name in tracer.names
                 if name.endswith(".locate") and
                 name.startswith("repro.directory."))
    metrics.update({
        "api.submit_s": tracer.total(SUBMIT) / ops,
        "dispatcher.order_s": tracer.total(ORDER) / ops,
        "dispatcher.tickets_examined_per_dispatched": _ratio(
            tracer.arg_items.get(ORDER, 0), traced.final.get("dispatched", 0)),
        "ldap.dn_s": tracer.self_in_module("repro.ldap.dn") / ops,
        "directory.register_s": tracer.total(REGISTER) / ops,
        "directory.locate_s": locate / ops,
        "storage.capacity_check_s": tracer.total(CAPACITY) / ops,
        "storage.keys_scanned_per_placement": _ratio(
            tracer.keys_in_capacity_check, tracer.count(CAPACITY)),
        "storage.apply_s": tracer.total(APPLY) / ops,
        "storage.size_calls_per_apply": _ratio(tracer.count(SIZE),
                                               tracer.count(APPLY)),
        "sim.us_per_event": _ratio(by_layer["sim"],
                                   traced.timed_steps) * 1e6,
    })
    return metrics


def record(result) -> dict:
    """The full, JSON-ready account of one workload run."""
    return {
        "workload": result.workload,
        "attempted": result.attempted,
        "failed": result.failed,
        "resent": result.resent,
        "problems": result.problems,
        "rounds": result.rounds,
        "setup_s": result.setup_s,
        "loads": result.loads,
        "timed_s": result.timed_s,
        "timed_ops": result.timed_ops,
        "window": result.window,
        "final": result.final,
        "memory": result.memory,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    function = workloads.WORKLOADS[workload]
    os.makedirs(OUT, exist_ok=True)
    if not trace:
        result = function(seed, seconds)
        metrics = dict(result.end_to_end())
        shown = dict(metrics, **window_metrics(result),
                     **{"api.resent": result.resent})
        runs = [result]
    else:
        untraced = function(seed, seconds / 3.0, repeats=1, memory=True)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = function(seed, seconds / 3.0, repeats=1, tracer=tracer)
        metrics = window_metrics(untraced)
        metrics.update(traced_metrics(traced, tracer))
        metrics["api.resent"] = untraced.resent
        metrics["mem.retained_bytes_per_write"] = \
            untraced.memory.get("retained_bytes_per_write", 0.0)
        metrics["mem.retained_bytes_per_subscriber"] = \
            untraced.memory["retained_bytes_per_subscriber"]
        metrics["trace.overhead_pct"] = \
            (untraced.rate() / traced.rate() - 1.0) * 100.0
        spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
        written = tracer.write_spans(spans_path)
        print(f"spans {written} written to "
              f"{os.path.relpath(spans_path, ROOT)}"
              + (f", truncated: {tracer.dropped} later spans not kept "
                 f"(tracer.SPAN_LIMIT)" if tracer.dropped else ""))
        shown = metrics
        runs = [untraced, traced]
    attempted = sum(result.attempted for result in runs)
    failed = sum(result.failed for result in runs)
    problems = [problem for result in runs for problem in result.problems]
    units = dict(END_TO_END, **PER_LAYER)
    for name in sorted(shown):
        print(f"{name} {shown[name]:.6g} {units[name][0]}")
    retried = sum(result.window["retries"] for result in runs)
    print(f"operations attempted {attempted} failed {failed} "
          f"retried-in-window {retried} resent "
          f"{sum(result.resent for result in runs)}")
    for problem in problems[:10]:
        print(f"check failed: {problem}")
    detail = {"seed": seed, "seconds": seconds, "trace": trace,
              "metrics": shown, "runs": [record(result) for result in runs]}
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)
    wanted = END_TO_END if not trace else PER_LAYER
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": wanted[name][0]}
                    for name in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
