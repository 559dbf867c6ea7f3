"""Record-list batch summarizer: the reference for ``summarize_service``.

This is the original ``summarize_service``: it groups complete record lists
by tenant, shard and architecture and computes every statistic with
builtin ``sum`` / ``min`` / ``max`` and a sorted-list percentile.
Production computes every :class:`~repro.metrics.service_stats.ServiceStats`
through :class:`repro.metrics.streaming.StreamingServiceAggregator`;
``tests/test_stats_differential.py`` and the ``summarize_service`` edge
cases in ``tests/test_metrics.py`` hold that single path to this one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.metrics.service_stats import (
    REJECT_DEADLINE_EXPIRED,
    REJECT_FIDELITY,
    BackendStats,
    RejectedQuery,
    ServedQuery,
    ServiceStats,
    ShardStats,
    TenantStats,
    WindowRecord,
)


def summarize_service(
    served: Sequence[ServedQuery],
    windows: Sequence[WindowRecord],
    max_queue_depth: dict[int, int] | None = None,
    clops: float = 1.0e6,
    rejected: Sequence[RejectedQuery] = (),
) -> ServiceStats:
    """Aggregate served-query and window records into a :class:`ServiceStats`.

    Args:
        served: one record per completed query.
        windows: one record per executed pipeline window.
        max_queue_depth: deepest per-shard queue observed by the serving
            loop (defaults to 0 for every shard).
        clops: hardware clock in full circuit layers per second.
        rejected: requests the engine refused (backpressure or expired
            deadlines), folded into the offered / shed / miss accounting.
    """
    if not served:
        raise ValueError("at least one served query is required")
    depths = max_queue_depth or {}
    makespan = max(s.finish_layer for s in served)
    seconds = makespan / clops if makespan > 0 else float("inf")

    by_tenant: dict[int, list[ServedQuery]] = {}
    by_shard: dict[int, list[ServedQuery]] = {}
    by_backend: dict[str, list[ServedQuery]] = {}
    for record in served:
        by_tenant.setdefault(record.tenant, []).append(record)
        by_shard.setdefault(record.shard, []).append(record)
        by_backend.setdefault(record.architecture, []).append(record)

    shed = [r for r in rejected if r.reason == REJECT_DEADLINE_EXPIRED]
    shed_by_tenant: dict[int, int] = {}
    for record in shed:
        shed_by_tenant[record.tenant] = shed_by_tenant.get(record.tenant, 0) + 1
    fidelity_rejected = [r for r in rejected if r.reason == REJECT_FIDELITY]
    fidelity_rejected_by_tenant: dict[int, int] = {}
    for record in fidelity_rejected:
        fidelity_rejected_by_tenant[record.tenant] = (
            fidelity_rejected_by_tenant.get(record.tenant, 0) + 1
        )

    per_tenant = {}
    # Include tenants whose entire demand was shed or refused: they served
    # nothing but their misses must not vanish from the per-tenant view.
    tenants = set(by_tenant) | set(shed_by_tenant) | set(fidelity_rejected_by_tenant)
    for tenant in sorted(tenants):
        records = by_tenant.get(tenant, [])
        misses, miss_rate = _deadline_misses(records, shed_by_tenant.get(tenant, 0))
        fidelity_mean, fidelity_min = _fidelity_summary(records)
        slo_misses, slo_miss_rate = _fidelity_slo_misses(
            records, fidelity_rejected_by_tenant.get(tenant, 0)
        )
        per_tenant[tenant] = TenantStats(
            tenant=tenant,
            queries=len(records),
            mean_latency_layers=_mean([r.latency_layers for r in records]),
            max_latency_layers=max(
                (r.latency_layers for r in records), default=0.0
            ),
            mean_queue_delay_layers=_mean([r.queue_delay_layers for r in records]),
            throughput_queries_per_sec=len(records) / seconds,
            p95_latency_layers=_percentile([r.latency_layers for r in records], 95),
            deadline_misses=misses,
            deadline_miss_rate=miss_rate,
            mean_fidelity=fidelity_mean,
            min_fidelity=fidelity_min,
            fidelity_slo_misses=slo_misses,
            fidelity_slo_miss_rate=slo_miss_rate,
        )

    windows_by_shard: dict[int, list[WindowRecord]] = {}
    windows_by_backend: dict[str, list[WindowRecord]] = {}
    for window in windows:
        windows_by_shard.setdefault(window.shard, []).append(window)
        windows_by_backend.setdefault(window.architecture, []).append(window)
    per_shard = {}
    for shard, records in sorted(by_shard.items()):
        shard_windows = windows_by_shard.get(shard, [])
        busy = sum(w.total_layers for w in shard_windows)
        fidelity_mean, fidelity_min = _fidelity_summary(records)
        per_shard[shard] = ShardStats(
            shard=shard,
            queries=len(records),
            windows=len(shard_windows),
            mean_batch_size=_mean([w.batch_size for w in shard_windows]),
            busy_layers=busy,
            utilization=min(1.0, busy / makespan) if makespan > 0 else 0.0,
            max_queue_depth=depths.get(shard, 0),
            architecture=records[0].architecture,
            mean_fidelity=fidelity_mean,
            min_fidelity=fidelity_min,
            fidelity_slo_misses=sum(1 for r in records if r.missed_fidelity_slo),
        )

    per_backend = {}
    for architecture, records in sorted(by_backend.items()):
        backend_windows = windows_by_backend.get(architecture, [])
        fidelity_mean, fidelity_min = _fidelity_summary(records)
        per_backend[architecture] = BackendStats(
            architecture=architecture,
            shards=len({r.shard for r in records}),
            queries=len(records),
            windows=len(backend_windows),
            mean_batch_size=_mean([w.batch_size for w in backend_windows]),
            mean_latency_layers=_mean([r.latency_layers for r in records]),
            mean_queue_delay_layers=_mean([r.queue_delay_layers for r in records]),
            busy_layers=sum(w.total_layers for w in backend_windows),
            throughput_queries_per_sec=len(records) / seconds,
            mean_fidelity=fidelity_mean,
            min_fidelity=fidelity_min,
            fidelity_slo_misses=sum(1 for r in records if r.missed_fidelity_slo),
        )

    latencies = [s.latency_layers for s in served]
    misses, miss_rate = _deadline_misses(served, len(shed))
    fidelity_mean, fidelity_min = _fidelity_summary(served)
    slo_misses, slo_miss_rate = _fidelity_slo_misses(served, len(fidelity_rejected))
    return ServiceStats(
        total_queries=len(served),
        makespan_layers=makespan,
        mean_latency_layers=_mean(latencies),
        mean_queue_delay_layers=_mean([s.queue_delay_layers for s in served]),
        bandwidth_queries_per_sec=len(served) / seconds,
        per_tenant=per_tenant,
        per_shard=per_shard,
        per_backend=per_backend,
        p50_latency_layers=_percentile(latencies, 50),
        p95_latency_layers=_percentile(latencies, 95),
        p99_latency_layers=_percentile(latencies, 99),
        offered_queries=len(served) + len(rejected),
        rejected_queries=len(rejected) - len(shed),
        shed_queries=len(shed),
        fidelity_rejected_queries=len(fidelity_rejected),
        deadline_misses=misses,
        deadline_miss_rate=miss_rate,
        mean_fidelity=fidelity_mean,
        min_fidelity=fidelity_min,
        fidelity_slo_misses=slo_misses,
        fidelity_slo_miss_rate=slo_miss_rate,
    )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] * (high - rank) + ordered[high] * (rank - low)


def _deadline_misses(
    served: Sequence[ServedQuery], shed_count: int
) -> tuple[int, float]:
    """Deadline misses and miss rate over the SLO-carrying demand.

    A shed request (deadline expired while queued) never finished and is
    counted as a miss alongside served queries that finished late.
    """
    with_deadline = [s for s in served if s.deadline is not None]
    misses = sum(1 for s in with_deadline if s.missed_deadline) + shed_count
    demand = len(with_deadline) + shed_count
    return misses, (misses / demand if demand else 0.0)


def _fidelity_summary(
    served: Sequence[ServedQuery],
) -> tuple[float | None, float | None]:
    """(mean, min) over the records carrying a fidelity; (None, None) when
    every record is fidelity-less (hand-built timing-only records)."""
    values = [s.fidelity for s in served if s.fidelity is not None]
    if not values:
        return None, None
    return _mean(values), min(values)


def _fidelity_slo_misses(
    served: Sequence[ServedQuery], fidelity_rejected_count: int
) -> tuple[int, float]:
    """Fidelity-SLO misses and miss rate over the SLO-carrying demand.

    A fidelity-infeasible rejection never produced a usable result and is
    counted as a miss alongside served slots whose prediction fell short.
    """
    with_slo = [s for s in served if s.min_fidelity is not None]
    misses = (
        sum(1 for s in with_slo if s.missed_fidelity_slo) + fidelity_rejected_count
    )
    demand = len(with_slo) + fidelity_rejected_count
    return misses, (misses / demand if demand else 0.0)
