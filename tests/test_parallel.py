"""Partitioned parallel serving: bit-identity, fallbacks, shared caches.

The contract under test (module docstring of :mod:`repro.engine.parallel`):
``ServiceEngine(workers=N)`` produces a report *equal* to ``workers=1``
for every partitionable configuration and equal to the single-process
oracle (``workers=0``) under full retention — same served records, same
windows, same rejections, same stats, byte for byte.  Around that core:

* every unpartitionable configuration falls back to the oracle with an
  observable ``fallback_reason`` (never silently);
* a factory-backed :class:`TraceSource` lets workers regenerate only
  their partition of a lazy trace, under a strictly-increasing-id
  contract, and a factory that ignores its shard filter is refused;
* the process-wide :class:`ScheduleCacheRegistry` stays coherent across
  the serve/write/serve cycle (write invalidation, warm re-prewarm);
* sanitizer mode extends across the worker boundary (per-partition
  conservation, nondecreasing merged streams).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.engine.parallel as parallel
from repro.core.query import QueryRequest
from repro.engine import (
    AutoscalerConfig,
    ClosedLoopSource,
    ParallelRunInfo,
    ServiceEngine,
    TraceSource,
    WORKERS_ENV,
    merge_sorted_records,
    partition_shards,
    partition_unsupported_reason,
)
from repro.engine.events import SanitizerViolation
from repro.engine.pool import fork_available
from repro.metrics.service_stats import ServedQuery
from repro.metrics.sinks import ListSink
from repro.metrics.streaming import (
    StreamingServiceAggregator,
    merge_service_aggregators,
)
from repro.scenarios import FleetSpec, RunSpec, ScenarioSpec, WorkloadSpec
from repro.schedule_cache import default_registry
from repro.service import QRAMService
from repro.workloads import (
    closed_loop_source,
    iter_poisson_trace,
    poisson_trace,
    random_data,
)

CAPACITY = 16
NUM_SHARDS = 4


def _service(**overrides):
    kwargs = dict(num_shards=NUM_SHARDS, data=random_data(CAPACITY, seed=3))
    kwargs.update(overrides)
    return QRAMService(CAPACITY, **kwargs)


def _trace_kwargs(**overrides):
    kwargs = dict(
        num_queries=48,
        mean_interarrival=6.0,
        num_tenants=3,
        num_shards=NUM_SHARDS,
        seed=11,
    )
    kwargs.update(overrides)
    return kwargs


def _trace(**overrides):
    return poisson_trace(CAPACITY, **_trace_kwargs(**overrides))


def _serve(service, requests, workers, **engine_kwargs):
    engine = ServiceEngine(service, workers=workers, **engine_kwargs)
    return engine.run(TraceSource(requests))


# ------------------------------------------------------------- bit-identity
def test_workers_bit_identical_to_oracle_full_retention():
    requests = _trace()
    oracle = _serve(_service(), requests, workers=0)
    for workers in (1, 2, 4, 8):
        report = _serve(_service(), requests, workers=workers)
        assert report == oracle, f"workers={workers} diverged from oracle"
        assert report.parallel is not None
        assert report.parallel.fallback_reason is None
        assert report.parallel.workers == min(workers, NUM_SHARDS)
    assert oracle.parallel is None


def test_workers_bit_identical_with_backpressure_and_deadlines():
    requests = _trace(mean_interarrival=1.0, deadline_layers=600.0)
    kwargs = dict(max_queue_depth=2, shed_expired=True)
    oracle = _serve(_service(), requests, workers=0, **kwargs)
    assert oracle.stats.rejected_queries + oracle.stats.shed_queries > 0
    for workers in (1, 3):
        report = _serve(_service(), requests, workers=workers, **kwargs)
        assert report == oracle


@pytest.mark.parametrize("retention", ["full", "sampled"])
def test_shard_outcomes_carry_an_aggregator_only_when_sketching(
    monkeypatch, retention
):
    """Full-retention shard outcomes ship counters and records but no
    aggregator (the parent summarizes the merged records once), and the
    merged report still equals the serial oracle; sketching retention
    ships each shard's online aggregator for the merge."""
    outcomes = []
    run_shard = parallel._run_shard

    def capture(*args):
        outcome = run_shard(*args)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(parallel, "_run_shard", capture)
    requests = _trace(mean_interarrival=1.0, deadline_layers=600.0)
    kwargs = dict(
        max_queue_depth=2, shed_expired=True, retention=retention, sample_size=16
    )
    oracle = _serve(_service(), requests, workers=0, **kwargs)
    report = _serve(_service(), requests, workers=1, **kwargs)
    assert report.parallel is not None and report.parallel.fallback_reason is None
    assert len(outcomes) == NUM_SHARDS
    for outcome in outcomes:
        assert (outcome.aggregator is None) == (retention == "full")
    assert sum(o.served_count for o in outcomes) == oracle.stats.total_queries
    assert sum(o.rejected_count for o in outcomes) == (
        oracle.stats.offered_queries - oracle.stats.total_queries
    )
    if retention == "full":
        assert report == oracle
        assert report == _serve(_service(), requests, workers=2, **kwargs)


def test_streaming_retention_worker_count_invariant():
    requests = _trace(num_queries=64)
    reports = [
        _serve(
            _service(),
            requests,
            workers=workers,
            retention="none",
            telemetry_interval=500.0,
        )
        for workers in (1, 3)
    ]
    assert reports[0] == reports[1]
    assert reports[0].telemetry, "telemetry intervals must survive the merge"
    assert reports[0].stats.total_queries == len(requests)


def test_streaming_retention_partial_fold_chunks_worker_count_invariant():
    # ~375 served records per shard: every child aggregator ships after
    # at least one full fold chunk and with a partly filled one.
    requests = _trace(num_queries=1500, mean_interarrival=8.0)
    one, two = (
        _serve(
            _service(functional=False),
            requests,
            workers=workers,
            retention="none",
        )
        for workers in (1, 2)
    )
    assert one == two
    assert one.stats.total_queries == len(requests)


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_forked_groups_follow_partition_shards_with_idle_shards(monkeypatch):
    # Shard 0 owns no request, so the busy shards [1, 2, 3] are the jobs;
    # the worker groups are partition_shards' assignment of those jobs.
    requests = [r for r in _trace() if r.address_amplitudes.shard]
    seen_groups = []
    original = parallel._run_forked

    def recording(engine, groups, sources):
        seen_groups.append(groups)
        return original(engine, groups, sources)

    monkeypatch.setattr(parallel, "_run_forked", recording)
    report = _serve(_service(), requests, workers=2)
    jobs = [1, 2, 3]
    assert seen_groups == [
        [[jobs[index] for index in group] for group in partition_shards(3, 2)]
    ]
    assert seen_groups == [[[1, 3], [2]]]
    assert report == _serve(_service(), requests, workers=0)


def test_sampled_retention_worker_count_invariant():
    requests = _trace(num_queries=64)
    one, two = (
        _serve(
            _service(),
            requests,
            workers=workers,
            retention="sampled",
            sample_size=16,
        )
        for workers in (1, 2)
    )
    assert one == two


def test_repeated_runs_are_seed_stable():
    requests = _trace()
    first = _serve(_service(), requests, workers=4)
    second = _serve(_service(), requests, workers=4)
    assert first == second


def test_partitioned_trace_source_matches_materialized_trace():
    def factory(shards):
        return iter_poisson_trace(
            CAPACITY, **_trace_kwargs(), shards=shards
        )

    oracle = _serve(_service(), list(factory(None)), workers=0)
    for workers in (1, 2, 4):
        engine = ServiceEngine(_service(), workers=workers)
        report = engine.run(TraceSource(factory=factory))
        assert report == oracle, f"workers={workers} diverged from oracle"
        assert report.parallel.fallback_reason is None


def test_idle_shards_get_no_partition():
    # Shards 0 and 2 own no request: only the busy shards are partitioned,
    # for a materialized trace and a factory alike.
    requests = [r for r in _trace() if r.address_amplitudes.shard % 2]

    def factory(shards):
        return iter(requests if shards is None else [
            r for r in requests if r.address_amplitudes.shard in shards
        ])

    oracle = _serve(_service(), requests, workers=0)
    for source in (TraceSource(requests), TraceSource(factory=factory)):
        report = ServiceEngine(_service(), workers=4).run(source)
        assert report == oracle
        assert report.parallel.partitions == 2


def test_error_messages_identical_across_worker_counts():
    requests = _trace(num_queries=12)
    duplicated = requests + [requests[-1]]
    messages = []
    for workers in (0, 1, 4):
        with pytest.raises(ValueError) as excinfo:
            _serve(_service(), duplicated, workers=workers)
        messages.append(str(excinfo.value))
    assert len(set(messages)) == 1
    assert "duplicate query_id" in messages[0]


# ------------------------------------------------------------ env / explicit
def test_workers_zero_is_the_plain_oracle():
    report = _serve(_service(), _trace(), workers=0)
    assert report.parallel is None


def test_negative_workers_rejected():
    with pytest.raises(ValueError, match="workers must be >= 0"):
        ServiceEngine(_service(), workers=-1)


def test_env_workers_auto_parallelizes_full_retention(monkeypatch):
    requests = _trace()
    oracle = _serve(_service(), requests, workers=0)
    monkeypatch.setenv(WORKERS_ENV, "2")
    report = ServiceEngine(_service()).run(TraceSource(requests))
    assert report == oracle
    assert report.parallel is not None and report.parallel.workers == 2


def test_env_workers_leaves_non_oracle_configs_alone(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    report = ServiceEngine(_service(), retention="sampled").run(
        TraceSource(_trace())
    )
    # Env-driven parallelism only engages where the merged report is
    # provably byte-equal to the oracle; sampled retention is invariant
    # across worker counts but not across the oracle boundary.
    assert report.parallel is None


# ----------------------------------------------------------------- fallbacks
@pytest.mark.parametrize(
    "build, fragment",
    [
        (
            lambda: (
                ServiceEngine(
                    _service(placement="shortest-queue"),
                    autoscaler=AutoscalerConfig(
                        period=500.0, high_watermark=3, max_shards=4
                    ),
                ),
                TraceSource(_trace()),
            ),
            "any replica",
        ),
        (
            lambda: (
                ServiceEngine(_service(), sink=ListSink()),
                TraceSource(_trace()),
            ),
            "external record sink",
        ),
        (
            lambda: (
                ServiceEngine(
                    QRAMService(
                        CAPACITY,
                        num_shards=1,
                        data=random_data(CAPACITY, seed=3),
                    )
                ),
                TraceSource(_trace(num_shards=1)),
            ),
            "single-shard fleet",
        ),
        (
            lambda: (
                ServiceEngine(_service(policy="random")),
                TraceSource(_trace()),
            ),
            "shared random state",
        ),
        (
            lambda: (
                ServiceEngine(_service()),
                closed_loop_source(
                    CAPACITY,
                    num_clients=3,
                    queries_per_client=4,
                    think_layers=50.0,
                    num_shards=NUM_SHARDS,
                    seed=5,
                ),
            ),
            "completion feedback",
        ),
    ],
    ids=[
        "autoscaler",
        "sink",
        "single-shard",
        "random-policy",
        "closed-loop",
    ],
)
def test_unpartitionable_configs_fall_back_with_reason(build, fragment):
    engine, source = build()
    reason = partition_unsupported_reason(engine, source)
    assert reason is not None and fragment in reason
    engine.workers = 4
    report = engine.run(source)
    assert report.parallel == ParallelRunInfo(
        workers=0, partitions=0, fallback_reason=reason, worker_seconds=()
    )


def test_autoscaled_run_still_serves_under_requested_workers():
    engine = ServiceEngine(
        _service(placement="shortest-queue"),
        autoscaler=AutoscalerConfig(
            period=200.0, high_watermark=2, max_shards=4
        ),
        workers=4,
    )
    report = engine.run(TraceSource(_trace(mean_interarrival=2.0)))
    assert report.stats.total_queries == 48
    assert report.parallel.workers == 0
    assert "any replica" in report.parallel.fallback_reason


def test_streaming_delivery_partitions_bit_identical():
    # delivery="streaming" is factory-backed, so workers engage for it and
    # the merged report equals the single-process oracle under full
    # retention.
    spec = ScenarioSpec(
        fleet=FleetSpec(
            capacity=CAPACITY,
            shards=("Fat-Tree",) * NUM_SHARDS,
            functional=False,
            data="random",
            data_seed=3,
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=60,
            mean_interarrival=4.0,
            addresses_per_query=1,
            num_tenants=3,
            seed=11,
            delivery="streaming",
        ),
        run=RunSpec(retention="full", workers=0),
    )
    oracle = spec.execute()
    report = replace(spec, run=replace(spec.run, workers=2)).execute()
    assert report.parallel.fallback_reason is None
    assert report.parallel.partitions == NUM_SHARDS
    assert report == oracle
    assert oracle.parallel is None


# ------------------------------------------------ factory-backed trace source
def test_partitioned_source_requires_increasing_ids():
    def factory(shards):
        yield QueryRequest(
            query_id=5, address_amplitudes={0: 1.0}, request_time=0.0
        )
        yield QueryRequest(
            query_id=3, address_amplitudes={1: 1.0}, request_time=1.0
        )

    with pytest.raises(ValueError, match="strictly increasing"):
        ServiceEngine(_service(), workers=0).run(TraceSource(factory=factory))


@pytest.mark.parametrize("workers", [1, 2])
def test_factory_ignoring_its_shard_filter_is_refused(workers):
    # Every child engine would otherwise serve the whole trace: served ==
    # offered == 2x the trace, silently, even under the sanitizer.
    def unfiltered(shards):
        return iter_poisson_trace(
            CAPACITY, 40, 6.0, num_shards=2, seed=4, addresses_per_query=1
        )

    service = _service(num_shards=2)
    assert ServiceEngine(service, workers=0).run(
        TraceSource(factory=unfiltered)
    ).stats.offered_queries == 40
    engine = ServiceEngine(service, workers=workers, sanitize=True)
    with pytest.raises(ValueError, match=r"factory called with shards="):
        engine.run(TraceSource(factory=unfiltered))


def test_partition_shards_round_robin_drops_empty_groups():
    assert partition_shards(5, 2) == [[0, 2, 4], [1, 3]]
    assert partition_shards(2, 8) == [[0], [1]]
    assert partition_shards(3, 1) == [[0, 1, 2]]


def test_shard_filtered_generation_matches_unfiltered():
    full = list(iter_poisson_trace(CAPACITY, **_trace_kwargs()))
    service = _service()
    regenerated = []
    for shard in range(NUM_SHARDS):
        regenerated.extend(
            iter_poisson_trace(CAPACITY, **_trace_kwargs(), shards=(shard,))
        )
    regenerated.sort(key=lambda request: request.query_id)
    assert regenerated == full
    # and every filtered request really is owned by the claimed shard
    owned = set()
    for request in iter_poisson_trace(
        CAPACITY, **_trace_kwargs(), shards=(1,)
    ):
        owned.add(service.shard_map.route(request.address_amplitudes)[0])
    assert owned == {1}


# --------------------------------------------------------------- shared cache
def test_registry_shares_executors_and_invalidates_on_write():
    registry = default_registry()
    registry.clear()
    service = _service()
    first = registry.stats()
    assert first.entries > 0, "fleet build must prewarm the registry"
    assert first.misses > 0 and first.hits == 0

    # A second fleet holding the identical memory images resolves every
    # shard to the already-shared executors: all hits, no new entries.
    _service()
    warmed = registry.stats()
    assert warmed.hits >= first.misses
    assert warmed.misses == first.misses
    assert warmed.entries == first.entries

    requests = _trace(num_queries=24)
    report = _serve(service, requests, workers=1)
    assert report.stats.total_queries == 24

    invalidations = registry.stats().invalidations
    service.write_memory(1, 1)
    assert registry.stats().invalidations > invalidations, (
        "write_memory must fan the invalidation out to the registry"
    )
    rerun = _serve(service, requests, workers=1)
    assert rerun.stats.total_queries == 24


def test_forked_workers_match_with_cold_parent_cache():
    # Even a cleared registry must not change results — only speed.
    requests = _trace()
    registry = default_registry()
    service = _service()
    oracle = _serve(service, requests, workers=0)
    registry.clear()
    report = _serve(service, requests, workers=4)
    assert report == oracle


# ----------------------------------------------------------------- sanitizer
def test_sanitizer_clean_across_worker_boundary():
    requests = _trace()
    oracle = _serve(_service(), requests, workers=0, sanitize=True)
    for workers in (1, 4):
        report = _serve(_service(), requests, workers=workers, sanitize=True)
        assert report == oracle


def test_merge_sorted_records_flags_out_of_order_stream():
    with pytest.raises(SanitizerViolation, match="not nondecreasing"):
        merge_sorted_records(
            [[1, 2, 3], [5, 4]], key=lambda item: item, sanitize=True
        )
    merged = merge_sorted_records([[1, 3], [2, 4]], key=lambda item: item)
    assert merged == [1, 2, 3, 4]


# ----------------------------------------------------------- aggregator merge
def test_merge_service_aggregators_matches_single_aggregator():
    requests = _trace(num_queries=64)
    full = ServiceEngine(_service(), retention="none").run(
        TraceSource(requests)
    )
    split = ServiceEngine(_service(), retention="none", workers=2).run(
        TraceSource(requests)
    )
    assert split.stats.total_queries == full.stats.total_queries
    assert split.stats.mean_latency_layers == pytest.approx(
        full.stats.mean_latency_layers
    )
    for tenant, stats in full.stats.per_tenant.items():
        merged = split.stats.per_tenant[tenant]
        assert merged.queries == stats.queries
        assert merged.mean_latency_layers == pytest.approx(
            stats.mean_latency_layers
        )


def _served(query_id, latency, shard=0):
    return ServedQuery(
        query_id=query_id,
        tenant=0,
        shard=shard,
        request_time=0.0,
        admit_layer=0.0,
        start_layer=0.0,
        finish_layer=latency,
        architecture="Fat-Tree",
    )


def test_merged_percentiles_track_exact_for_unit_weights():
    # Few enough observations that the P2 sketches still hold the exact
    # heights: the weighted merge must then reproduce the exact batch
    # percentile, not an approximation.
    latencies = [5.0, 9.0, 2.0, 7.0]
    left = StreamingServiceAggregator()
    right = StreamingServiceAggregator()
    combined = StreamingServiceAggregator()
    for index, latency in enumerate(latencies):
        target = left if index % 2 == 0 else right
        record = _served(index, latency)
        target.observe_served(record)
        combined.observe_served(record)
    merged = merge_service_aggregators([left, right])
    exact = combined.to_stats({0: 0})
    merged_stats = merged.to_stats({0: 0})
    assert merged_stats.p95_latency_layers == pytest.approx(
        exact.p95_latency_layers
    )
    assert merged_stats.total_queries == exact.total_queries
