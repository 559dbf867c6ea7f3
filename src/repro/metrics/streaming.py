"""Serving statistics, aggregated one record at a time, folded in chunks.

Every :class:`~repro.metrics.service_stats.ServiceStats` is computed here.
Under ``retention="sampled"`` / ``"none"`` the engine hands each
:class:`~repro.metrics.service_stats.ServedQuery`,
:class:`~repro.metrics.service_stats.WindowRecord` and
:class:`~repro.metrics.service_stats.RejectedQuery` to a
:class:`StreamingServiceAggregator` the moment it is produced; under
``retention="full"`` it aggregates nothing online and
:func:`summarize_service` folds the retained, canonical-order record lists
through the same aggregator once, at the end.  Counts, sums, means and
extrema are exact in every mode; only the latency percentiles depend on
how the aggregator was built:

* ``exact=True`` (used only by :func:`summarize_service`) retains the
  latencies and reports exact order statistics;
* ``exact=False`` (the engine's online aggregator) keeps P² sketches, so
  memory is O(chunk + tenants + shards + backends), never O(requests): a
  million-query run aggregates through the same fixed-size buffer and
  sketches as a thousand-query run.

Served records are buffered as derived scalars and folded
:data:`_FOLD_CHUNK_SIZE` at a time, one ``extend`` loop per accumulator.
Fold order — record order within every sketch and every group — is what
keeps the output bit-identical to a record-by-record fold, whatever the
chunk boundaries: each ``extend`` performs exactly the float operations,
in exactly the order, of one ``add`` per value.

Building blocks:

* :class:`StreamingStat` — count / sum / mean / min / max of one series.
* :class:`P2Quantile` — the P² algorithm (Jain & Chlamtac, 1985): one
  running quantile estimate from five markers, no sample storage.  Exact
  below five observations, approximate beyond (error bounds are pinned
  against exact percentiles in ``tests/test_telemetry.py``).
* :class:`LatencySketch` — the p50 / p95 / p99 bundle used for latency.
* :class:`StreamingServiceAggregator` — the full
  :class:`~repro.metrics.service_stats.ServiceStats` surface (global,
  per-tenant, per-shard, per-backend, rejection and SLO accounting);
  ``to_stats`` materializes the summary at any point, and
  :func:`merge_service_aggregators` combines per-partition aggregators.
* :class:`IntervalStats` — one time-windowed telemetry sample (throughput,
  queue depths, rejection rate, fidelity) emitted by the engine's periodic
  :class:`~repro.engine.events.TelemetryTick`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

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

__all__ = [
    "IntervalStats",
    "LatencySketch",
    "P2Quantile",
    "StreamingServiceAggregator",
    "StreamingStat",
    "merge_service_aggregators",
    "summarize_service",
]


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


class StreamingStat:
    """Count / sum / mean / min / max of one series, in O(1) memory."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Sequence[float]) -> None:
        """Fold ``values`` in order: the same additions and comparisons,
        in the same order, as one :meth:`add` per value."""
        if not values:
            return
        self.count += len(values)
        # An explicit loop, never sum(): sum() compensates float rounding
        # on Python >= 3.12, which would change the total's last bits.
        total = self.total
        low = self.minimum
        high = self.maximum
        if low is None or high is None:
            low = high = values[0]
        for value in values:
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
        self.total = total
        self.minimum = low
        self.maximum = high

    @property
    def mean(self) -> float:
        """Mean of the series (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: StreamingStat) -> None:
        """Fold another series' accumulators into this one.

        Counts, sums and extrema merge exactly, so statistics over a
        partitioned run equal the statistics of one combined series up to
        float-summation order (parallel serving merges partitions in shard
        order, making the order — and the result — worker-count
        invariant).
        """
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (
            self.minimum is None or other.minimum < self.minimum
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None or other.maximum > self.maximum
        ):
            self.maximum = other.maximum


def _p2_step(
    delta: float,
    low: float,
    height: float,
    high: float,
    n_low: float,
    n: float,
    n_high: float,
) -> tuple[float, float]:
    """Move one interior P² marker a unit step toward its desired position.

    Returns the marker's new height — the piecewise-parabolic (P²)
    prediction, or the linear one when the parabola would leave the
    neighbouring heights ``(low, high)`` — and its new position.
    """
    step = 1.0 if delta > 0 else -1.0
    candidate = height + step / (n_high - n_low) * (
        (n - n_low + step) * (high - height) / (n_high - n)
        + (n_high - n - step) * (height - low) / (n - n_low)
    )
    if not low < candidate < high:
        if step > 0:
            candidate = height + step * (high - height) / (n_high - n)
        else:
            candidate = height + step * (low - height) / (n_low - n)
    return candidate, n + step


class P2Quantile:
    """One running quantile via the P² algorithm — five markers, no samples.

    The estimator keeps five marker heights that track the minimum, the
    target quantile, the quantile's half-way neighbours and the maximum,
    adjusting them with a piecewise-parabolic update as observations
    stream past.  Below five observations the buffered values give the
    exact (linearly interpolated) percentile.  :meth:`extend` is the one
    update path (:meth:`add` folds a single value through it); the
    estimate depends on the order of the values but not on how they are
    split into ``extend`` calls.
    """

    __slots__ = (
        "quantile",
        "_count",
        "_heights",
        "_positions",
        "_desired",
        "_increments",
    )

    def __init__(self, quantile: float) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.quantile = quantile
        self._count = 0
        self._heights: list[float] = []
        self._positions: list[float] = []
        self._desired: list[float] = []
        self._increments = [
            0.0, quantile / 2.0, quantile, (1.0 + quantile) / 2.0, 1.0
        ]

    @property
    def count(self) -> int:
        return self._count

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Sequence[float]) -> None:
        """Fold ``values`` in order — the estimator's one update path.

        The five marker heights ``h0..h4``, positions ``n0..n4`` and
        desired positions ``d1..d4`` live in locals for the whole chunk
        and are stored back once; only an actual marker move calls out
        (:func:`_p2_step`).  Every float operation and its order match the
        textbook update applied one value at a time, so any chunking of a
        series leaves the sketch bit-identical.
        """
        heights = self._heights
        count = self._count
        start = 0
        # Below five observations the buffered values are the series.
        while count < 5 and start < len(values):
            heights.append(values[start])
            heights.sort()
            count += 1
            start += 1
            if count == 5:
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0 + 4.0 * inc for inc in self._increments
                ]
        self._count = count + len(values) - start
        if start == len(values):
            return

        h0, h1, h2, h3, h4 = heights
        n0, n1, n2, n3, n4 = self._positions
        d0, d1, d2, d3, d4 = self._desired
        # increments[0] is always 0.0 (and d0 stays 1.0), so the first
        # slot's no-op update is skipped.
        _, i1, i2, i3, i4 = self._increments
        for value in values[start:] if start else values:
            # Locate the cell the observation falls into, stretching the
            # extreme markers when it lands outside the current range, and
            # shift the positions of the markers above it.
            if value < h0:
                h0 = value
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif value >= h4:
                h4 = value
            elif value < h1:
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif value < h2:
                n2 += 1.0
                n3 += 1.0
            elif value < h3:
                n3 += 1.0
            n4 += 1.0
            d1 += i1
            d2 += i2
            d3 += i3
            d4 += i4

            # Nudge the three interior markers, in order, toward their
            # desired positions.
            delta = d1 - n1
            if (delta >= 1.0 and n2 - n1 > 1.0) or (
                delta <= -1.0 and n0 - n1 < -1.0
            ):
                h1, n1 = _p2_step(delta, h0, h1, h2, n0, n1, n2)
            delta = d2 - n2
            if (delta >= 1.0 and n3 - n2 > 1.0) or (
                delta <= -1.0 and n1 - n2 < -1.0
            ):
                h2, n2 = _p2_step(delta, h1, h2, h3, n1, n2, n3)
            delta = d3 - n3
            if (delta >= 1.0 and n4 - n3 > 1.0) or (
                delta <= -1.0 and n2 - n3 < -1.0
            ):
                h3, n3 = _p2_step(delta, h2, h3, h4, n2, n3, n4)
        self._heights = [h0, h1, h2, h3, h4]
        self._positions = [n0, n1, n2, n3, n4]
        self._desired = [d0, d1, d2, d3, d4]

    @property
    def value(self) -> float:
        """Current quantile estimate (0.0 before any observation)."""
        if not self._count:
            return 0.0
        if self._count <= 5:
            return _percentile(self._heights, self.quantile * 100.0)
        return self._heights[2]


class LatencySketch:
    """The p50 / p95 / p99 latency bundle of one streaming series."""

    __slots__ = ("_p50", "_p95", "_p99")

    def __init__(self) -> None:
        self._p50 = P2Quantile(0.50)
        self._p95 = P2Quantile(0.95)
        self._p99 = P2Quantile(0.99)

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Sequence[float]) -> None:
        self._p50.extend(values)
        self._p95.extend(values)
        self._p99.extend(values)

    @property
    def p50(self) -> float:
        return self._p50.value

    @property
    def p95(self) -> float:
        return self._p95.value

    @property
    def p99(self) -> float:
        return self._p99.value


class _ExactQuantile:
    """One exact running quantile: duck-types :class:`P2Quantile`'s
    ``extend`` / ``value``.

    Retains every observation and reports the linearly interpolated order
    statistic (:func:`_percentile`), so an exact aggregator folds records
    through the same ``extend`` calls as a sketched one.
    """

    __slots__ = ("quantile", "values")

    def __init__(self, quantile: float) -> None:
        self.quantile = quantile
        self.values: list[float] = []

    def extend(self, values: Sequence[float]) -> None:
        self.values.extend(values)

    @property
    def value(self) -> float:
        return _percentile(self.values, self.quantile * 100.0)


class _ExactSketch:
    """Exact p50 / p95 / p99 over one retained series: duck-types
    :class:`LatencySketch`."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: list[float] = []

    def extend(self, values: Sequence[float]) -> None:
        self.values.extend(values)

    @property
    def p50(self) -> float:
        return _percentile(self.values, 50)

    @property
    def p95(self) -> float:
        return _percentile(self.values, 95)

    @property
    def p99(self) -> float:
        return _percentile(self.values, 99)


@dataclass(frozen=True)
class IntervalStats:
    """One time-windowed telemetry sample of a running service.

    Emitted by the engine's periodic
    :class:`~repro.engine.events.TelemetryTick`: counters cover the events
    of the half-open interval ``(start_layer, end_layer]``; queue depths
    are the instantaneous values at ``end_layer``.

    Attributes:
        start_layer / end_layer: bounds of the interval, raw layers.
        arrivals: requests that arrived in the interval (served or not).
        served: queries completed in the interval.
        rejected: requests refused in the interval (all reasons, shed
            included).
        shed: the expired-deadline subset of ``rejected``.
        windows: pipeline windows admitted in the interval.
        throughput_queries_per_layer: ``served`` over the interval length.
        queue_depth_total / queue_depth_max: queued requests summed / maxed
            over the active shards at the tick instant.
        rejection_rate: ``rejected`` over the interval's dispositions
            (``served + rejected``, both counted at the instant they
            happen, so the rate is always in [0, 1] even when a request
            sheds intervals after it arrived); 0.0 on an idle interval.
        mean_fidelity: mean fidelity of the queries served in the interval
            (``None`` when none carried a fidelity).
    """

    start_layer: float
    end_layer: float
    arrivals: int
    served: int
    rejected: int
    shed: int
    windows: int
    throughput_queries_per_layer: float
    queue_depth_total: int
    queue_depth_max: int
    rejection_rate: float
    mean_fidelity: float | None


#: Served records buffered per aggregator before they are folded into the
#: group statistics and sketches.  Folding a chunk runs one tight loop per
#: accumulator instead of ~16 method calls per record.  256, 512 and 1024
#: fold a 30k-record run equally fast (within run-to-run noise), so the
#: smallest keeps the buffer — the aggregator's one size-bounded,
#: record-proportional state — smallest.
_FOLD_CHUNK_SIZE = 256

#: One buffered served record: latency, queue delay, fidelity, missed
#: deadline, missed SLO (``None`` when the query had none), tenant, shard,
#: architecture.
_Row = tuple[
    float, float, "float | None", "bool | None", "bool | None", int, int, str
]
#: A run of rows transposed into one tuple per field.
_Columns = tuple[tuple[Any, ...], ...]


def _by_key(
    rows: list[_Row], columns: _Columns, field: int
) -> dict[Any, _Columns]:
    """Split a chunk's columns by the key in ``field``, keeping row order
    within each key (first-seen key order)."""
    keys = columns[field]
    first = keys[0]
    if keys.count(first) == len(keys):
        return {first: columns}
    buckets: dict[Any, list[_Row]] = {}
    for key, row in zip(keys, rows):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    return {key: tuple(zip(*bucket)) for key, bucket in buckets.items()}


@dataclass(slots=True)
class _GroupAggregate:
    """Shared accumulator behind the tenant / shard / backend views."""

    queries: int = 0
    latency: StreamingStat = field(default_factory=StreamingStat)
    queue_delay: StreamingStat = field(default_factory=StreamingStat)
    fidelity: StreamingStat = field(default_factory=StreamingStat)
    deadline_demand: int = 0
    deadline_misses: int = 0
    slo_demand: int = 0
    slo_misses: int = 0
    # Windows (shard / backend views only).
    windows: int = 0
    batch_total: int = 0
    busy_layers: float = 0.0
    architecture: str = ""
    shard_ids: set[int] = field(default_factory=set)
    # Rejections (tenant view only).
    shed: int = 0
    fidelity_rejected: int = 0

    def fold(self, columns: _Columns) -> None:
        """Fold a run of served queries' derived values, in record order.

        ``columns`` holds one tuple per :data:`_Row` field (see
        :meth:`StreamingServiceAggregator.observe_served`); a missed
        deadline / SLO is ``None`` for a query without one.
        """
        latencies, queue_delays, fidelities, missed_deadlines, missed_slos = (
            columns[:5]
        )
        queries = len(latencies)
        self.queries += queries
        self.latency.extend(latencies)
        self.queue_delay.extend(queue_delays)
        if fidelities.count(None) != queries:
            self.fidelity.extend(
                [fidelity for fidelity in fidelities if fidelity is not None]
            )
        self.deadline_demand += queries - missed_deadlines.count(None)
        self.deadline_misses += missed_deadlines.count(True)
        self.slo_demand += queries - missed_slos.count(None)
        self.slo_misses += missed_slos.count(True)

    def observe_window(self, record: WindowRecord) -> None:
        self.windows += 1
        self.batch_total += record.batch_size
        self.busy_layers += record.total_layers

    def merge(self, other: _GroupAggregate) -> None:
        """Fold another group's accumulators into this one (shard-order
        deterministic; see :func:`merge_service_aggregators`)."""
        self.queries += other.queries
        self.latency.merge(other.latency)
        self.queue_delay.merge(other.queue_delay)
        self.fidelity.merge(other.fidelity)
        self.deadline_demand += other.deadline_demand
        self.deadline_misses += other.deadline_misses
        self.slo_demand += other.slo_demand
        self.slo_misses += other.slo_misses
        self.windows += other.windows
        self.batch_total += other.batch_total
        self.busy_layers += other.busy_layers
        if not self.architecture:
            self.architecture = other.architecture
        self.shard_ids |= other.shard_ids
        self.shed += other.shed
        self.fidelity_rejected += other.fidelity_rejected

    @property
    def mean_batch_size(self) -> float:
        return self.batch_total / self.windows if self.windows else 0.0


@dataclass(frozen=True)
class _FrozenQuantile:
    """A merged quantile estimate: duck-types ``P2Quantile.value``."""

    value: float


@dataclass(frozen=True)
class _FrozenSketch:
    """A merged latency bundle: duck-types ``LatencySketch.p50/p95/p99``."""

    p50: float
    p95: float
    p99: float


def _representatives(sketch: P2Quantile) -> list[tuple[float, float]]:
    """Compress one P² sketch into ``(value, weight)`` representatives.

    Below five observations the buffered values *are* the series (unit
    weights, exact).  Beyond, the five marker heights stand in for the
    series, each weighted by the share of observations its cell covers —
    half the span between its neighbouring marker positions, normalized so
    the weights sum to the observation count.  Merging partitions then
    reduces to a weighted percentile over all partitions' representatives.
    """
    count = sketch.count
    if count == 0:
        return []
    if count <= 5:
        return [(height, 1.0) for height in sketch._heights]
    positions = sketch._positions
    spans = [
        positions[1] - positions[0],
        (positions[2] - positions[0]) / 2.0,
        (positions[3] - positions[1]) / 2.0,
        (positions[4] - positions[2]) / 2.0,
        positions[4] - positions[3],
    ]
    total = sum(spans)
    return [
        (height, count * span / total)
        for height, span in zip(sketch._heights, spans)
    ]


def _weighted_percentile(
    representatives: list[tuple[float, float]], quantile: float
) -> float:
    """Linear-interpolated percentile of weighted representatives.

    Each representative of weight ``w`` sits at the center of its run of
    ``w`` virtual observations (``c_i = W_before + (w_i - 1) / 2``), so
    with unit weights this reproduces ``_percentile`` exactly — merged
    streaming percentiles of short series stay exact, and sketched ones
    degrade no further than the sketches themselves.
    """
    if not representatives:
        return 0.0
    ordered = sorted(representatives)
    total = sum(weight for _, weight in ordered)
    rank = (total - 1.0) * quantile
    centers: list[float] = []
    before = 0.0
    for _, weight in ordered:
        centers.append(before + (weight - 1.0) / 2.0)
        before += weight
    if rank <= centers[0]:
        return ordered[0][0]
    if rank >= centers[-1]:
        return ordered[-1][0]
    for index in range(1, len(ordered)):
        if rank <= centers[index]:
            lower, upper = centers[index - 1], centers[index]
            fraction = (rank - lower) / (upper - lower) if upper > lower else 0.0
            low_value = ordered[index - 1][0]
            return low_value + fraction * (ordered[index][0] - low_value)
    return ordered[-1][0]


class StreamingServiceAggregator:
    """The full :class:`ServiceStats` surface, maintained one record at a time.

    The engine (under sampled / no retention) and
    :func:`summarize_service` feed every :class:`ServedQuery`,
    :class:`WindowRecord` and :class:`RejectedQuery` through
    :meth:`observe_served` / :meth:`observe_window` /
    :meth:`observe_rejected`; :meth:`to_stats` materializes a
    :class:`ServiceStats` whose counts, sums, means, extrema and rates are
    exact.  The latency percentiles (global p50/p95/p99 and per-tenant
    p95) are exact order statistics with ``exact=True``, which retains one
    latency per served record (twice: globally and per tenant), and P²
    estimates otherwise, in memory O(chunk + tenants + shards + backends)
    independent of the number of records observed.

    Windows and rejections are counted on arrival; served records are
    buffered and folded :data:`_FOLD_CHUNK_SIZE` at a time (:meth:`flush`),
    in record order, so the statistics are bit-identical to folding each
    record on its own.  The accumulators are only complete after a
    flush, which :meth:`to_stats` and :func:`merge_service_aggregators`
    perform themselves.
    """

    def __init__(self, exact: bool = False) -> None:
        self.served_count = 0
        self.rejected_count = 0
        self.shed_count = 0
        self.fidelity_rejected_count = 0
        self.makespan_layers = 0.0
        self._global = _GroupAggregate()
        self._latency_sketch = _ExactSketch() if exact else LatencySketch()
        self._quantile = _ExactQuantile if exact else P2Quantile
        self._tenants: dict[int, _GroupAggregate] = {}
        self._tenant_sketches: dict[int, P2Quantile | _ExactQuantile] = {}
        self._shards: dict[int, _GroupAggregate] = {}
        self._backends: dict[str, _GroupAggregate] = {}
        self._chunk: list[_Row] = []

    # ------------------------------------------------------------- observers
    def _tenant(self, tenant: int) -> _GroupAggregate:
        group = self._tenants.get(tenant)
        if group is None:
            group = self._tenants[tenant] = _GroupAggregate()
            self._tenant_sketches[tenant] = self._quantile(0.95)
        return group

    def observe_served(self, record: ServedQuery) -> None:
        self.served_count += 1
        finish = record.finish_layer
        if finish > self.makespan_layers:
            self.makespan_layers = finish
        # Derive the record's property values once, for all four group
        # views, and buffer them; :meth:`flush` folds them a chunk at a
        # time.
        request_time = record.request_time
        deadline = record.deadline
        min_fidelity = record.min_fidelity
        fidelity = record.fidelity
        if min_fidelity is None:
            missed_slo = None
        else:
            achieved = record.predicted_fidelity
            if achieved is None:
                achieved = fidelity
            missed_slo = achieved is not None and achieved < min_fidelity
        chunk = self._chunk
        chunk.append(
            (
                finish - request_time,
                record.admit_layer - request_time,
                fidelity,
                None if deadline is None else finish > deadline,
                missed_slo,
                record.tenant,
                record.shard,
                record.architecture,
            )
        )
        if len(chunk) >= _FOLD_CHUNK_SIZE:
            self.flush()

    def flush(self) -> None:
        """Fold the buffered served records into every view.

        Each accumulator folds its values with one ``extend`` in record
        order, so the result is bit-identical to folding record by record
        whatever the chunk boundaries.  :meth:`to_stats` and
        :func:`merge_service_aggregators` flush first; call it before
        reading the accumulators directly or shipping the aggregator.
        """
        rows = self._chunk
        if not rows:
            return
        self._chunk = []
        columns = tuple(zip(*rows))
        self._global.fold(columns)
        self._latency_sketch.extend(columns[0])
        for tenant, part in _by_key(rows, columns, 5).items():
            self._tenant(tenant).fold(part)
            self._tenant_sketches[tenant].extend(part[0])
        for shard_id, part in _by_key(rows, columns, 6).items():
            shard = self._shards.get(shard_id)
            if shard is None:
                shard = self._shards[shard_id] = _GroupAggregate()
            if not shard.architecture:
                shard.architecture = part[7][0]
            shard.fold(part)
        for architecture, part in _by_key(rows, columns, 7).items():
            backend = self._backends.get(architecture)
            if backend is None:
                backend = self._backends[architecture] = _GroupAggregate()
            backend.shard_ids.update(part[6])
            backend.fold(part)

    def observe_window(self, record: WindowRecord) -> None:
        # `.get` instead of `.setdefault`: the default argument would
        # construct (and usually discard) a fresh _GroupAggregate — three
        # StreamingStats and a set — on every window.
        shard = self._shards.get(record.shard)
        if shard is None:
            shard = self._shards[record.shard] = _GroupAggregate()
        shard.observe_window(record)
        backend = self._backends.get(record.architecture)
        if backend is None:
            backend = self._backends[record.architecture] = _GroupAggregate()
        backend.observe_window(record)

    def observe_rejected(self, record: RejectedQuery) -> None:
        # Shed and fidelity-infeasible refusals surface per tenant (they
        # are SLO misses), while queue-full backpressure is service-level
        # only — a tenant whose whole demand bounced off a full queue gets
        # no phantom zero-query row.
        self.rejected_count += 1
        if record.reason == REJECT_DEADLINE_EXPIRED:
            self.shed_count += 1
            self._tenant(record.tenant).shed += 1
        elif record.reason == REJECT_FIDELITY:
            self.fidelity_rejected_count += 1
            self._tenant(record.tenant).fidelity_rejected += 1

    # ----------------------------------------------------------- summarizing
    def to_stats(
        self,
        max_queue_depth: dict[int, int] | None = None,
        clops: float = 1.0e6,
    ) -> ServiceStats:
        """Materialize the running aggregates as a :class:`ServiceStats`.

        Args:
            max_queue_depth: deepest per-shard queue observed by the
                serving loop (defaults to 0 for every shard).
            clops: hardware clock in full circuit layers per second.
        """
        if not self.served_count:
            raise ValueError("at least one served query is required")
        self.flush()
        depths = max_queue_depth or {}
        makespan = self.makespan_layers
        seconds = makespan / clops if makespan > 0 else float("inf")

        per_tenant = {}
        for tenant in sorted(self._tenants):
            group = self._tenants[tenant]
            deadline_demand = group.deadline_demand + group.shed
            deadline_misses = group.deadline_misses + group.shed
            slo_demand = group.slo_demand + group.fidelity_rejected
            slo_misses = group.slo_misses + group.fidelity_rejected
            per_tenant[tenant] = TenantStats(
                tenant=tenant,
                queries=group.queries,
                mean_latency_layers=group.latency.mean,
                max_latency_layers=group.latency.maximum or 0.0,
                mean_queue_delay_layers=group.queue_delay.mean,
                throughput_queries_per_sec=group.queries / seconds,
                p95_latency_layers=self._tenant_sketches[tenant].value,
                deadline_misses=deadline_misses,
                deadline_miss_rate=(
                    deadline_misses / deadline_demand if deadline_demand else 0.0
                ),
                mean_fidelity=(
                    group.fidelity.mean if group.fidelity.count else None
                ),
                min_fidelity=group.fidelity.minimum,
                fidelity_slo_misses=slo_misses,
                fidelity_slo_miss_rate=(
                    slo_misses / slo_demand if slo_demand else 0.0
                ),
            )

        per_shard = {}
        for shard in sorted(self._shards):
            group = self._shards[shard]
            if not group.queries:
                continue
            per_shard[shard] = ShardStats(
                shard=shard,
                queries=group.queries,
                windows=group.windows,
                mean_batch_size=group.mean_batch_size,
                busy_layers=group.busy_layers,
                utilization=(
                    min(1.0, group.busy_layers / makespan) if makespan > 0 else 0.0
                ),
                max_queue_depth=depths.get(shard, 0),
                architecture=group.architecture,
                mean_fidelity=(
                    group.fidelity.mean if group.fidelity.count else None
                ),
                min_fidelity=group.fidelity.minimum,
                fidelity_slo_misses=group.slo_misses,
            )

        per_backend = {}
        for architecture in sorted(self._backends):
            group = self._backends[architecture]
            if not group.queries:
                continue
            per_backend[architecture] = BackendStats(
                architecture=architecture,
                shards=len(group.shard_ids),
                queries=group.queries,
                windows=group.windows,
                mean_batch_size=group.mean_batch_size,
                mean_latency_layers=group.latency.mean,
                mean_queue_delay_layers=group.queue_delay.mean,
                busy_layers=group.busy_layers,
                throughput_queries_per_sec=group.queries / seconds,
                mean_fidelity=(
                    group.fidelity.mean if group.fidelity.count else None
                ),
                min_fidelity=group.fidelity.minimum,
                fidelity_slo_misses=group.slo_misses,
            )

        total = self._global
        deadline_demand = total.deadline_demand + self.shed_count
        deadline_misses = total.deadline_misses + self.shed_count
        slo_demand = total.slo_demand + self.fidelity_rejected_count
        slo_misses = total.slo_misses + self.fidelity_rejected_count
        return ServiceStats(
            total_queries=self.served_count,
            makespan_layers=makespan,
            mean_latency_layers=total.latency.mean,
            mean_queue_delay_layers=total.queue_delay.mean,
            bandwidth_queries_per_sec=self.served_count / seconds,
            per_tenant=per_tenant,
            per_shard=per_shard,
            per_backend=per_backend,
            p50_latency_layers=self._latency_sketch.p50,
            p95_latency_layers=self._latency_sketch.p95,
            p99_latency_layers=self._latency_sketch.p99,
            offered_queries=self.served_count + self.rejected_count,
            rejected_queries=self.rejected_count - self.shed_count,
            shed_queries=self.shed_count,
            fidelity_rejected_queries=self.fidelity_rejected_count,
            deadline_misses=deadline_misses,
            deadline_miss_rate=(
                deadline_misses / deadline_demand if deadline_demand else 0.0
            ),
            mean_fidelity=(
                total.fidelity.mean if total.fidelity.count else None
            ),
            min_fidelity=total.fidelity.minimum,
            fidelity_slo_misses=slo_misses,
            fidelity_slo_miss_rate=(
                slo_misses / slo_demand if slo_demand else 0.0
            ),
        )


def merge_service_aggregators(
    parts: list[StreamingServiceAggregator],
) -> StreamingServiceAggregator:
    """Combine per-partition aggregators into one fleet-wide aggregator.

    Parallel serving aggregates each shard's records in its own worker;
    this merge reassembles the run-wide view.  Counts, sums, means and
    extrema merge exactly — identical to observing every record in one
    aggregator.  The P² latency sketches are order-sensitive, so instead
    of replaying them the merge combines each partition's weighted
    representatives (:func:`_representatives`) into one weighted
    percentile: exact when every partition saw at most five observations,
    sketch-accurate beyond.  ``parts`` must be passed in shard order — the
    float-summation order is then fixed by the partition layout, making
    the merged statistics bit-identical across worker counts.

    The merged aggregator is a summarizing snapshot: its percentile
    sketches are frozen, so it must not observe further records.  Parts
    must be sketching (``exact=False``) aggregators: full-retention runs
    summarize their canonical-order records with :func:`summarize_service`
    instead.
    """
    if not parts:
        raise ValueError("at least one partition aggregator is required")
    merged = StreamingServiceAggregator()
    p50_reps: list[tuple[float, float]] = []
    p95_reps: list[tuple[float, float]] = []
    p99_reps: list[tuple[float, float]] = []
    tenant_reps: dict[int, list[tuple[float, float]]] = {}
    for part in parts:
        part.flush()
        merged.served_count += part.served_count
        merged.rejected_count += part.rejected_count
        merged.shed_count += part.shed_count
        merged.fidelity_rejected_count += part.fidelity_rejected_count
        if part.makespan_layers > merged.makespan_layers:
            merged.makespan_layers = part.makespan_layers
        merged._global.merge(part._global)
        p50_reps.extend(_representatives(part._latency_sketch._p50))
        p95_reps.extend(_representatives(part._latency_sketch._p95))
        p99_reps.extend(_representatives(part._latency_sketch._p99))
        for tenant, group in part._tenants.items():
            merged._tenants.setdefault(tenant, _GroupAggregate()).merge(group)
            tenant_reps.setdefault(tenant, []).extend(
                _representatives(part._tenant_sketches[tenant])
            )
        for shard, shard_group in part._shards.items():
            merged._shards.setdefault(shard, _GroupAggregate()).merge(shard_group)
        for name, backend_group in part._backends.items():
            merged._backends.setdefault(name, _GroupAggregate()).merge(
                backend_group
            )
    merged._latency_sketch = _FrozenSketch(  # type: ignore[assignment]
        p50=_weighted_percentile(p50_reps, 0.50),
        p95=_weighted_percentile(p95_reps, 0.95),
        p99=_weighted_percentile(p99_reps, 0.99),
    )
    merged._tenant_sketches = {  # type: ignore[assignment]
        tenant: _FrozenQuantile(_weighted_percentile(reps, 0.95))
        for tenant, reps in tenant_reps.items()
    }
    return merged


def summarize_service(
    served: Sequence[ServedQuery],
    windows: Sequence[WindowRecord],
    max_queue_depth: dict[int, int] | None = None,
    clops: float = 1.0e6,
    rejected: Sequence[RejectedQuery] = (),
) -> ServiceStats:
    """Aggregate complete record lists into a :class:`ServiceStats`.

    Folds ``windows``, then ``served``, then ``rejected`` — each in the
    given order, which fixes the float-summation order of every mean —
    through an exact :class:`StreamingServiceAggregator`, so latency
    percentiles are exact order statistics.

    Args:
        served: one record per completed query.
        windows: one record per executed pipeline window.
        max_queue_depth: deepest per-shard queue observed by the serving
            loop (defaults to 0 for every shard).
        clops: hardware clock in full circuit layers per second.
        rejected: requests the engine refused (backpressure or expired
            deadlines), folded into the offered / shed / miss accounting.
    """
    aggregator = StreamingServiceAggregator(exact=True)
    for window in windows:
        aggregator.observe_window(window)
    for record in served:
        aggregator.observe_served(record)
    for refusal in rejected:
        aggregator.observe_rejected(refusal)
    return aggregator.to_stats(max_queue_depth, clops)
