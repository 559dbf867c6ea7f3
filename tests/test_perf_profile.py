"""The hot-path profiler: observational by contract, and the hot-path
allocation trims it guided.

``REPRO_PROFILE=1`` (or ``ServiceEngine(profile=True)``) must land a
stage-time table on the report without perturbing a single simulated
value — the engine wraps its stage methods but never changes them.  These
tests pin that contract, the profiler/StageProfile mechanics, and the
bit-exactness of the allocation trims the profile motivated (fast record
construction, the interleaved route fast path, the unrolled P² update)
and of the streaming aggregator's chunked folds: any chunking of a series
leaves every sketch, statistic and summary bit-identical.
"""

from __future__ import annotations

import pickle

import pytest

import repro.perf.profiler as profiler_module
from repro.engine.workload import TraceSource
import repro.metrics.streaming as streaming_module
from repro.metrics.service_stats import (
    REJECT_DEADLINE_EXPIRED,
    REJECT_FIDELITY,
    REJECT_QUEUE_FULL,
    RejectedQuery,
    ServedQuery,
    WindowRecord,
)
from repro.metrics.streaming import (
    P2Quantile,
    StreamingServiceAggregator,
    StreamingStat,
    _percentile,
    merge_service_aggregators,
)
from repro.perf import HotPathProfiler, StageProfile, env_profile
from repro.service.service import QRAMService
from repro.service.sharding import InterleavedShardMap
from repro.workloads.generators import iter_poisson_trace


def _serve(profile=None, retention="full"):
    def trace(shards):
        return iter_poisson_trace(
            8, 300, mean_interarrival=14.0, addresses_per_query=1,
            num_tenants=4, num_shards=2, seed=5, shards=shards,
        )

    service = QRAMService(8, num_shards=2, functional=False)
    return service.serve_workload(
        TraceSource(factory=trace),
        retention=retention,
        telemetry_interval=2000.0,
        profile=profile,
    )


# --------------------------------------------------------------------------
# Observational contract
# --------------------------------------------------------------------------
def test_profiled_run_is_observational():
    """profile=True changes nothing but the report's profile field."""
    plain = _serve(profile=False)
    profiled = _serve(profile=True)
    assert plain.profile is None
    assert profiled.profile is not None
    assert profiled.served == plain.served
    assert profiled.windows == plain.windows
    assert profiled.stats == plain.stats
    assert profiled.telemetry == plain.telemetry


def test_profile_counts_match_run_shape():
    """Stage counts equal the run's actual event counts."""
    report = _serve(profile=True)
    counts = report.profile.counts
    assert counts["admission"] == 300
    assert counts["sketch_update"] == len(report.served) == 300
    assert counts["window_execute"] == len(report.windows)
    assert counts["run_window"] == len(report.windows)
    # No wall clock was injected: counting only, zero seconds.
    assert not report.profile.timed
    assert all(spent == 0.0 for spent in report.profile.seconds.values())


def test_env_variable_enables_profiling(monkeypatch):
    monkeypatch.setenv(profiler_module.PROFILE_ENV, "1")
    assert env_profile()
    report = _serve(profile=None)
    assert report.profile is not None
    monkeypatch.setenv(profiler_module.PROFILE_ENV, "0")
    assert not env_profile()
    assert _serve(profile=None).profile is None


def test_engine_reusable_after_profiled_run():
    """A second run on the same engine must not double-count stages."""
    from repro.engine.core import ServiceEngine

    service = QRAMService(8, num_shards=2, functional=False)
    engine = ServiceEngine(service, retention="full", profile=True)

    def trace():
        return iter_poisson_trace(
            8, 100, mean_interarrival=14.0, addresses_per_query=1,
            num_tenants=2, num_shards=2, seed=3,
        )

    first = engine.run(TraceSource(trace()))
    second = engine.run(TraceSource(trace()))
    assert first.profile.counts == second.profile.counts
    assert first.stats == second.stats


# --------------------------------------------------------------------------
# Profiler / StageProfile mechanics
# --------------------------------------------------------------------------
def test_profiler_counts_without_clock():
    profiler = HotPathProfiler()
    work = profiler.timed("stage", lambda x: x + 1)
    assert work(1) == 2 and work(2) == 3
    snapshot = profiler.snapshot()
    assert snapshot.counts == {"stage": 2}
    assert not snapshot.timed


def test_profiler_times_with_injected_clock(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(profiler_module, "host_clock", lambda: float(next(ticks)))
    profiler = HotPathProfiler()
    assert profiler.call("once", lambda: "done") == "done"
    wrapped = profiler.timed("wrapped", lambda: None)
    wrapped()
    snapshot = profiler.snapshot()
    assert snapshot.timed
    assert snapshot.counts == {"once": 1, "wrapped": 1}
    assert snapshot.seconds["once"] == 1.0
    assert snapshot.seconds["wrapped"] == 1.0


def test_stage_profile_merge_and_table():
    first = StageProfile(counts={"a": 2, "b": 1}, seconds={"a": 0.5}, timed=True)
    second = StageProfile(counts={"a": 3, "c": 4}, seconds={"a": 0.25, "c": 1.0})
    merged = first.merged(second)
    assert merged.counts == {"a": 5, "b": 1, "c": 4}
    assert merged.seconds == {"a": 0.75, "c": 1.0}
    assert merged.timed
    table = merged.table()
    assert "stage" in table and "a" in table and "c" in table
    assert StageProfile().table() == "(no profiled stages)"
    assert pickle.loads(pickle.dumps(merged)) == merged


# --------------------------------------------------------------------------
# Hot-path trim parity (profile-guided allocation trims)
# --------------------------------------------------------------------------
def test_fast_record_constructors_equal_normal_construction():
    fields = dict(
        query_id=7, tenant=1, shard=0, request_time=10.0, admit_layer=12.0,
        start_layer=13.0, finish_layer=20.0, fidelity=0.99,
        architecture="Fat-Tree", deadline=None, predicted_fidelity=0.99,
        min_fidelity=None, distillation_copies=1,
    )
    fast = ServedQuery._from_fields(**fields)
    normal = ServedQuery(**fields)
    assert fast == normal
    assert hash(fast) == hash(normal)
    assert fast.latency_layers == normal.latency_layers
    assert pickle.loads(pickle.dumps(fast)) == normal

    window_fields = dict(
        shard=0, admit_layer=5.0, batch_size=4, interval=3,
        total_layers=30.0, architecture="BB",
    )
    assert WindowRecord._from_fields(**window_fields) == WindowRecord(
        **window_fields
    )


def test_interleaved_route_single_address_fast_path():
    shard_map = InterleavedShardMap(16, 4)
    for address in range(16):
        amplitudes = {address: 0.6 + 0.8j}
        assert shard_map.route(amplitudes) == (
            address % 4, {address // 4: 0.6 + 0.8j}
        )
    with pytest.raises(ValueError):
        shard_map.route({16: 1.0})
    # Multi-address superpositions still validate shard alignment.
    assert shard_map.route({1: 0.5, 5: 0.5}) == (1, {0: 0.5, 1: 0.5})
    with pytest.raises(ValueError):
        shard_map.route({0: 0.5, 1: 0.5})


class _ReferenceP2:
    """The original P² update, verbatim (the pinned oracle for the
    unrolled hot-path version)."""

    def __init__(self, quantile):
        self.quantile = quantile
        self._count = 0
        self._heights = []
        self._positions = []
        self._desired = []
        self._increments = [
            0.0, quantile / 2.0, quantile, (1.0 + quantile) / 2.0, 1.0
        ]

    def add(self, value):
        self._count += 1
        heights = self._heights
        if self._count <= 5:
            heights.append(value)
            heights.sort()
            if self._count == 5:
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0 + 4.0 * inc for inc in self._increments]
            return
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 3
            for i in range(1, 4):
                if value < heights[i]:
                    cell = i - 1
                    break
        positions = self._positions
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta > 0 else -1.0
                candidate = self._parabolic(i, step)
                if not heights[i - 1] < candidate < heights[i + 1]:
                    candidate = self._linear(i, step)
                heights[i] = candidate
                positions[i] += step

    def _parabolic(self, i, step):
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i, step):
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self):
        if not self._count:
            return 0.0
        if self._count <= 5:
            return _percentile(self._heights, self.quantile * 100.0)
        return self._heights[2]


@pytest.mark.parametrize("quantile", [0.5, 0.9, 0.95, 0.99])
def test_p2_unrolled_update_bitwise_parity(quantile):
    """The unrolled P² add matches the original loop state for state."""
    import numpy as np

    rng = np.random.default_rng(42)
    optimized = P2Quantile(quantile)
    reference = _ReferenceP2(quantile)
    for value in rng.exponential(25.0, size=5000).tolist():
        optimized.add(value)
        reference.add(value)
    assert [h.hex() for h in optimized._heights] == [
        h.hex() for h in reference._heights
    ]
    assert optimized._positions == reference._positions
    assert [d.hex() for d in optimized._desired] == [
        d.hex() for d in reference._desired
    ]
    assert optimized.value.hex() == reference.value.hex()


# --------------------------------------------------------------------------
# Chunked folds: any chunking of a series folds bit-identically
# --------------------------------------------------------------------------
def _random_chunks(rng, values):
    """Cut ``values`` into consecutive chunks of 1-17 values."""
    chunks = []
    start = 0
    while start < len(values):
        size = int(rng.integers(1, 18))
        chunks.append(values[start:start + size])
        start += size
    return chunks


def _p2_state(sketch):
    return (
        sketch._count,
        [h.hex() for h in sketch._heights],
        [n.hex() for n in sketch._positions],
        [d.hex() for d in sketch._desired],
        sketch.value.hex(),
    )


def _p2_series(rng, quantile, size=3000):
    """Values that tie with the current marker heights, stretch the range
    below its minimum and above its maximum, and repeat small integers.

    Plateaus of repeated values (the first 300, and every 1000th run of
    100) give markers equal heights, which sends the update down its
    linear fallback in both directions."""
    generator = _ReferenceP2(quantile)
    values = []
    for index in range(size):
        heights = generator._heights
        if index < 300:
            value = float(rng.integers(0, 3))
        elif index % 1000 < 100:
            value = heights[(index // 1000) % 5]
        elif index >= 5 and index % 7 == 3:
            value = heights[index % 5]  # exactly a marker height
        elif index >= 5 and index % 13 == 0:
            value = heights[0] - float(rng.integers(1, 4))  # new minimum
        elif index >= 5 and index % 17 == 0:
            value = heights[4] + float(rng.integers(1, 4))  # new maximum
        elif index % 3 == 0:
            value = float(rng.integers(0, 6))  # repeated small integers
        else:
            value = float(rng.exponential(25.0))
        generator.add(value)
        values.append(value)
    return values


@pytest.mark.parametrize("split_seed", [0, 1, 2])
@pytest.mark.parametrize("quantile", [0.5, 0.95, 0.99])
def test_p2_extend_matches_reference_over_random_chunks(quantile, split_seed):
    import numpy as np

    values = _p2_series(np.random.default_rng(7), quantile)
    rng = np.random.default_rng(split_seed)
    # The first chunk straddles the five-observation boundary.
    head = int(rng.integers(2, 5))
    chunks = [values[:head], values[head:head + 6]] + _random_chunks(
        rng, values[head + 6:]
    )
    sketch = P2Quantile(quantile)
    reference = _ReferenceP2(quantile)
    for chunk in chunks:
        sketch.extend(tuple(chunk))
        for value in chunk:
            reference.add(value)
        assert _p2_state(sketch) == _p2_state(reference)
    assert sketch.count == len(values)


def _reference_stat(values):
    """The per-value fold a StreamingStat performed before chunking."""
    count, total, low, high = 0, 0.0, None, None
    for value in values:
        count += 1
        total += value
        if low is None or value < low:
            low = value
        if high is None or value > high:
            high = value
    return count, total, low, high


def _stat_state(count, total, low, high):
    return count, total.hex(), low.hex(), high.hex()


@pytest.mark.parametrize("split_seed", [0, 1, 2])
def test_streaming_stat_extend_matches_repeated_add(split_seed):
    import numpy as np

    rng = np.random.default_rng(split_seed)
    # Signed zeros tie under < / >: the first one seen must be kept.
    values = [0.0, -0.0] + rng.normal(0.0, 1e6, size=2000).tolist()
    values += [-0.0, 0.0, 1e-300, -1e300, 1e300]
    chunked = StreamingStat()
    added = StreamingStat()
    for chunk in _random_chunks(rng, values):
        chunked.extend(tuple(chunk))
        for value in chunk:
            added.add(value)
    expected = _stat_state(*_reference_stat(values))
    for stat in (chunked, added):
        assert _stat_state(
            stat.count, stat.total, stat.minimum, stat.maximum
        ) == expected
    empty = StreamingStat()
    empty.extend(())
    assert empty.count == 0 and empty.minimum is None


def _mixed_records(seed, served_count=700):
    """A served / window / rejected record stream over three shards, two
    architectures and four tenants, with deadlines, fidelity SLOs and
    missing fidelities."""
    import numpy as np

    rng = np.random.default_rng(seed)
    architectures = ("Fat-Tree", "BB", "Fat-Tree")
    reasons = (REJECT_QUEUE_FULL, REJECT_DEADLINE_EXPIRED, REJECT_FIDELITY)
    records = []
    for query_id in range(served_count):
        shard = int(rng.integers(0, 3))
        tenant = int(rng.integers(0, 4))
        request = float(rng.uniform(0.0, 5000.0))
        admit = request + float(rng.exponential(10.0))
        finish = admit + float(rng.exponential(30.0))
        if rng.random() < 0.3:
            records.append((
                "window",
                WindowRecord(
                    shard=shard,
                    admit_layer=admit,
                    batch_size=int(rng.integers(1, 5)),
                    interval=4.0,
                    total_layers=float(rng.exponential(40.0)),
                    architecture=architectures[shard],
                ),
            ))
        if rng.random() < 0.1:
            records.append((
                "rejected",
                RejectedQuery(
                    query_id=-query_id - 1,
                    tenant=tenant,
                    shard=shard,
                    time=request,
                    reason=reasons[int(rng.integers(0, 3))],
                ),
            ))
        records.append((
            "served",
            ServedQuery(
                query_id=query_id,
                tenant=tenant,
                shard=shard,
                request_time=request,
                admit_layer=admit,
                start_layer=admit,
                finish_layer=finish,
                fidelity=(
                    None if rng.random() < 0.3 else float(rng.uniform(0.9, 1.0))
                ),
                architecture=architectures[shard],
                deadline=(
                    None if rng.random() < 0.5
                    else request + float(rng.exponential(40.0))
                ),
                predicted_fidelity=(
                    None if rng.random() < 0.5 else float(rng.uniform(0.9, 1.0))
                ),
                min_fidelity=None if rng.random() < 0.5 else 0.95,
            ),
        ))
    return records


def _aggregate(records, exact=False):
    aggregator = StreamingServiceAggregator(exact=exact)
    for kind, record in records:
        getattr(aggregator, f"observe_{kind}")(record)
    return aggregator


_DEPTHS = {0: 3, 1: 5, 2: 1}


@pytest.mark.parametrize("exact", [False, True])
def test_aggregator_fold_chunk_size_leaves_stats_identical(monkeypatch, exact):
    records = _mixed_records(seed=4)
    reprs = []
    for size in (1, 3, streaming_module._FOLD_CHUNK_SIZE):
        monkeypatch.setattr(streaming_module, "_FOLD_CHUNK_SIZE", size)
        stats = _aggregate(records, exact=exact).to_stats(_DEPTHS)
        reprs.append(repr(stats))
    assert reprs[0] == reprs[1] == reprs[2]
    stats = _aggregate(records).to_stats(_DEPTHS)
    assert stats.shed_queries and stats.fidelity_rejected_queries
    assert stats.deadline_misses and stats.fidelity_slo_misses
    assert set(stats.per_backend) == {"BB", "Fat-Tree"}


def test_merge_of_partly_filled_chunks_equals_merge_of_flushed_parts():
    records = _mixed_records(seed=5)
    parts = [_aggregate(records[:301]), _aggregate(records[301:])]
    flushed = pickle.loads(pickle.dumps(parts))
    for part in parts:
        assert 0 < len(part._chunk) < streaming_module._FOLD_CHUNK_SIZE
    for part in flushed:
        part.flush()
        assert not part._chunk
    assert repr(merge_service_aggregators(parts).to_stats(_DEPTHS)) == repr(
        merge_service_aggregators(flushed).to_stats(_DEPTHS)
    )


def test_aggregator_with_partly_filled_chunk_survives_pickle():
    aggregator = _aggregate(_mixed_records(seed=6))
    assert 0 < len(aggregator._chunk) < streaming_module._FOLD_CHUNK_SIZE
    shipped = pickle.loads(pickle.dumps(aggregator))
    assert repr(shipped.to_stats(_DEPTHS)) == repr(aggregator.to_stats(_DEPTHS))
