"""Bounded-memory serving with a live telemetry time series.

A 2-shard Fat-Tree fleet drains a 20,000-query open-loop Poisson trace
that is *never materialized*: ``WorkloadSpec(delivery="streaming")``
builds a :class:`~repro.engine.TraceSource` over a trace factory, which
yields one request at a time and feeds the engine one arrival ahead.  The engine runs with ``retention="none"`` — no per-request records
are kept, the report's statistics come from the online aggregators in
:mod:`repro.metrics.streaming` — and a periodic ``TelemetryTick`` emits
one interval sample every 10,000 layers, so the run is observable *while
it happens* rather than through a post-hoc record dump.  A
:class:`~repro.metrics.sinks.JsonlSink` tee shows how to keep durable full
telemetry on disk without resident memory — sinks are runtime objects, so
they ride on ``spec.execute(sink=...)`` rather than in the spec itself.

This is exactly how ``benchmarks/bench_service_scale.py`` serves a million
queries in ~50 MB of RSS; see ``BENCH_service_scale.json`` for the
recorded trajectory.

Run with ``python examples/serving_scale_telemetry.py``.
"""

from __future__ import annotations

import os
import tempfile

from repro.metrics.sinks import JsonlSink, load_jsonl
from repro.scenarios import FleetSpec, RunSpec, ScenarioSpec, WorkloadSpec

CAPACITY = 16
NUM_SHARDS = 2
NUM_QUERIES = 20_000
MEAN_INTERARRIVAL = 16.0
TELEMETRY_INTERVAL = 10_000.0


def telemetry_scenario() -> ScenarioSpec:
    """The full bounded-memory run as one declarative spec."""
    return ScenarioSpec(
        name="scale-telemetry",
        fleet=FleetSpec(
            capacity=CAPACITY,
            shards=("Fat-Tree",) * NUM_SHARDS,
            functional=False,
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=NUM_QUERIES,
            mean_interarrival=MEAN_INTERARRIVAL,
            addresses_per_query=1,
            num_tenants=4,
            seed=5,
            delivery="streaming",
        ),
        run=RunSpec(
            retention="none",
            telemetry_interval=TELEMETRY_INTERVAL,
        ),
    )


#: Every scenario this example serves, importable by tests and benchmarks.
SCENARIOS: dict[str, ScenarioSpec] = {"telemetry": telemetry_scenario()}


def main() -> None:
    spec = SCENARIOS["telemetry"]
    jsonl_path = os.path.join(tempfile.gettempdir(), "qram_telemetry.jsonl")
    with JsonlSink(jsonl_path) as sink:
        report = spec.execute(sink=sink)

    stats = report.stats
    print(f"served {stats.total_queries} queries in "
          f"{stats.makespan_layers:.0f} layers with no retained records "
          f"(report.served has {len(report.served)} entries)")
    print(f"latency mean/p50/p95/p99: {stats.mean_latency_layers:.1f} / "
          f"{stats.p50_latency_layers:.1f} / {stats.p95_latency_layers:.1f} / "
          f"{stats.p99_latency_layers:.1f} layers  (percentiles sketched)\n")

    print("interval time series (one row per TelemetryTick):")
    print("  window [layers]        arrivals  served  q/layer  depth  rej%")
    for interval in report.telemetry[:12]:
        print(f"  [{interval.start_layer:>8.0f}, {interval.end_layer:>8.0f}] "
              f"{interval.arrivals:>9} {interval.served:>7} "
              f"{interval.throughput_queries_per_layer:>8.4f} "
              f"{interval.queue_depth_max:>6} "
              f"{interval.rejection_rate:>5.1%}")
    remaining = len(report.telemetry) - 12
    if remaining > 0:
        print(f"  ... {remaining} more intervals")

    records = load_jsonl(jsonl_path)
    served = sum(1 for r in records if type(r).__name__ == "ServedQuery")
    print(f"\nJSONL tee at {jsonl_path}: {len(records)} records "
          f"({served} served) — full per-request telemetry on disk while "
          "the process held none in memory")


if __name__ == "__main__":
    main()
