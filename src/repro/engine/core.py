"""The discrete-event serving engine: one virtual clock for every scenario.

:class:`ServiceEngine` drives a fleet of QRAM backends (any object with the
:class:`repro.service.QRAMService` surface — shards, shard map, admission
policy, window sizes) through a heap of typed events
(:mod:`repro.engine.events`).  Time advances only here: arrivals enqueue,
idle shards admit pipeline windows, draining windows free their shard, and
optional :class:`ScaleCheck` ticks grow or shrink a replicated fleet.  New
serving scenarios are new event types or new
:class:`~repro.engine.workload.WorkloadSource` implementations — never a
new hand-rolled loop.

On top of the bare event loop the engine adds the serving disciplines a
shared memory under live contention needs:

* **closed-loop clients** — a :class:`~repro.engine.workload.ClosedLoopSource`
  issues each client's next request only after its previous completion
  (think-time feedback), while :class:`~repro.engine.workload.TraceSource`
  replays an open-loop trace — materialized or regenerated by a factory —
  one arrival at a time, bit-for-bit like the legacy
  ``QRAMService.serve`` loop;
* **SLO-aware admission** — per-request deadlines (EDF ordering via
  ``policy="edf"``), bounded per-shard queues that reject on overflow, and
  optional shedding of queued requests whose deadline already expired, all
  surfaced in :class:`repro.metrics.service_stats.ServiceStats`;
* **fidelity-aware admission** — per-request ``min_fidelity`` targets
  checked against every backend's *predicted* slot fidelity
  (:mod:`repro.backends.noise`): replicated placement prefers a shard that
  can meet the target (an encoded replica in a mixed fleet), infeasible
  requests are refused with :data:`REJECT_FIDELITY`, an optional
  virtual-distillation retry spends up to ``max_distillation_copies``
  parallel copies (Sec. 8.2) to lift a shard over the target with the
  copies' layer cost charged to the window, and batches are capped so
  pipelining-depth degradation never drags an admitted slot below its SLO
  (predictions are memoized per ``(shard, occupancy)`` — the hot path
  never re-derives them);
* **elastic fleets** — an :class:`AutoscalerConfig` adds or retires
  full-memory replicas (built through
  :func:`repro.baselines.registry.build_backend`; encoded variants by
  ``"<architecture>@d<k>"`` name) from queue-depth watermarks, rebalancing
  queued work onto fresh replicas;
* **streaming telemetry** — every served / rejected / window / scale
  record flows through a :class:`~repro.metrics.sinks.RecordSink` chosen
  by the engine's ``retention`` mode; under ``"sampled"`` / ``"none"``
  it also feeds the online
  :class:`~repro.metrics.streaming.StreamingServiceAggregator` (full
  retention summarizes its retained records once, at the end), so
  ``retention="none"`` serves million-query workloads in memory
  independent of request count while still reporting full
  :class:`~repro.metrics.service_stats.ServiceStats`; a periodic
  :class:`TelemetryTick` emits time-windowed
  :class:`~repro.metrics.streaming.IntervalStats` (throughput, queue
  depths, rejection rates, fidelity) so long runs expose a time series.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.baselines.registry import build_backend
from repro.core.query import ANY_SHARD, QueryRequest
from repro.engine.events import (
    ClientThink,
    EventHeap,
    SanitizerViolation,
    ScaleCheck,
    TelemetryTick,
    WindowDrain,
    WindowStart,
)
from repro.engine.partition import ParallelRunInfo, partition_unsupported_reason
from repro.engine.workload import WorkloadSource, _SeenIds, check_request
from repro.fidelity.distillation import distilled_infidelity
from repro.metrics.service_stats import (
    REJECT_DEADLINE_EXPIRED,
    REJECT_FIDELITY,
    REJECT_QUEUE_FULL,
    RejectedQuery,
    ScaleEvent,
    ServedQuery,
    ServiceStats,
    WindowRecord,
)
from repro.metrics.sinks import ListSink, NullSink, RecordSink, SamplingSink
from repro.metrics.streaming import (
    IntervalStats,
    StreamingServiceAggregator,
    summarize_service,
)
from repro.perf.profiler import HotPathProfiler, StageProfile, env_profile
from repro.schedule_cache import CacheStats, default_registry

#: Retention modes for the engine's per-request records.
RETENTIONS = ("full", "sampled", "none")

#: Environment switch for sanitizer mode (CI runs the whole suite with it).
SANITIZE_ENV = "REPRO_SANITIZE"

#: Environment default for partitioned parallel serving.  Applied only to
#: runs whose parallel output is provably identical to the single-process
#: oracle (full retention, no telemetry interval, no external sink, and a
#: partitionable fleet/source); everything else falls back silently.  An
#: explicit ``ServiceEngine(workers=...)`` always wins over the variable.
WORKERS_ENV = "REPRO_WORKERS"


def _env_sanitize() -> bool:
    """Default sanitizer setting from the ``REPRO_SANITIZE`` variable."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


def _env_workers() -> int | None:
    """Default worker count from the ``REPRO_WORKERS`` variable."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 1 else None


#: (stage name, engine method) pairs wrapped when profiling.  ``run_window``
#: and ``heap_pop`` / ``heap_push`` are attributed separately inside
#: ``_execute_window`` / ``_run_events``.
_PROFILED_STAGES: tuple[tuple[str, str], ...] = (
    ("admission", "_on_arrival"),
    ("placement", "_shortest_queue"),
    ("fidelity_prediction", "_predicted_fidelities"),
    ("window_execute", "_execute_window"),
    ("sketch_update", "_record_served"),
    ("sketch_update_window", "_record_window"),
    ("sketch_update_rejected", "_record_rejected"),
)


def _distilled(fidelity: float, copies: int) -> float:
    """Predicted fidelity after virtual distillation with ``copies`` copies
    (identity at 1 copy; the paper's leading-order ``eps^k`` suppression).

    Measured functional fidelities are state overlaps — mathematically in
    [0, 1] but computed with floats, so a perfect slot can come back as
    ``1.0 + O(eps)``.  Clamp the implied infidelity into range rather than
    letting :func:`distilled_infidelity` reject the rounding artifact.
    """
    if copies <= 1:
        return fidelity
    infidelity = min(1.0, max(0.0, 1.0 - fidelity))
    return 1.0 - distilled_infidelity(infidelity, copies)


@dataclass(frozen=True)
class AutoscalerConfig:
    """Queue-depth-watermark autoscaling of a replicated fleet.

    Every ``period`` layers the engine inspects the deepest active queue:
    at or above ``high_watermark`` it adds one full-memory replica (up to
    ``max_shards``) and rebalances queued requests onto it; at or below
    ``low_watermark`` it retires one idle, empty replica (down to
    ``min_shards``).  Only ``"shortest-queue"`` placement can scale — an
    interleaved fleet partitions the address space and cannot change shard
    count without resharding.

    Attributes:
        period: raw layers between scale checks.
        high_watermark: per-shard queue depth that triggers scale-up.
        low_watermark: per-shard queue depth that permits scale-down.
        min_shards: floor on active replicas.
        max_shards: ceiling on active replicas.
        architecture: backend architecture for new replicas (defaults to
            the fleet's first shard's architecture).
    """

    period: float
    high_watermark: int
    low_watermark: int = 0
    min_shards: int = 1
    max_shards: int = 8
    architecture: str | None = None

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.low_watermark < 0 or self.high_watermark <= self.low_watermark:
            raise ValueError("need high_watermark > low_watermark >= 0")
        if not 1 <= self.min_shards <= self.max_shards:
            raise ValueError("need 1 <= min_shards <= max_shards")


@dataclass
class ServiceReport:
    """Everything the engine observed while serving one workload.

    Attributes:
        served: completed-query records, in completion order — every one
            under ``retention="full"``, a uniform reservoir sample under
            ``"sampled"``, empty under ``"none"`` (``stats`` always covers
            the whole run).
        windows: executed pipeline windows (retained per the same mode).
        stats: aggregated per-tenant / per-shard / per-backend statistics —
            exact percentiles under full retention (summarized from the
            canonical-order records), sketched percentiles otherwise;
            counts and means are exact in every mode.
        outputs: per-query output amplitudes over global ``(address, bus)``
            pairs (populated only on functional runs under full retention).
        rejected: requests refused by backpressure or shed past deadline
            (retained per the retention mode).
        scale_events: elastic-fleet transitions taken by the autoscaler
            (retained per the retention mode, like every record stream).
        telemetry: time-windowed interval samples, one per
            :class:`~repro.engine.events.TelemetryTick` (empty unless the
            engine was given a ``telemetry_interval``).
        retention: the retention mode the run used.
        parallel: how the run was parallelized (or why it was not) when
            partitioned serving was requested; ``None`` on a plain
            single-process run.  Excluded from equality — the whole point
            of the parallel path is that reports compare equal across
            worker counts.
        profile: the hot-path stage-time table
            (:class:`~repro.perf.profiler.StageProfile`) when the engine
            ran with ``profile=True`` / ``REPRO_PROFILE=1``; ``None``
            otherwise.  Excluded from equality like ``parallel`` —
            profiling is observational and must never make two otherwise
            identical reports differ.
        cache_stats: snapshot of the process-wide
            :class:`~repro.schedule_cache.ScheduleCacheRegistry` counters
            taken when the report was built, so per-run cache hit-rates
            are observable outside benchmarks (printed next to the
            ``REPRO_PROFILE=1`` stage table).  Counters are process-wide
            and monotone — compare two snapshots with
            :meth:`~repro.schedule_cache.CacheStats.delta`.  Excluded
            from equality like ``parallel``: cache warmth affects speed,
            never results.
    """

    served: list[ServedQuery]
    windows: list[WindowRecord]
    stats: ServiceStats
    outputs: dict[int, dict[tuple[int, int], complex]] = field(default_factory=dict)
    rejected: list[RejectedQuery] = field(default_factory=list)
    scale_events: list[ScaleEvent] = field(default_factory=list)
    telemetry: list[IntervalStats] = field(default_factory=list)
    retention: str = "full"
    parallel: ParallelRunInfo | None = field(
        default=None, repr=False, compare=False
    )
    profile: StageProfile | None = field(default=None, repr=False, compare=False)
    cache_stats: CacheStats | None = field(
        default=None, repr=False, compare=False
    )
    _result_index: dict[int, ServedQuery] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def result_for(self, query_id: int) -> ServedQuery:
        """The served record of one query id (O(1) after the first call).

        Only retained records are indexed: under ``retention="sampled"`` /
        ``"none"`` a completed query may raise ``KeyError`` here even
        though it is counted in ``stats``.
        """
        if self._result_index is None:
            self._result_index = {r.query_id: r for r in self.served}
        try:
            return self._result_index[query_id]
        except KeyError:
            raise KeyError(query_id) from None


class ServiceEngine:
    """Discrete-event simulation of a QRAM backend fleet serving traffic.

    Args:
        fleet: the fleet to drive — typically a
            :class:`repro.service.QRAMService`; any object exposing
            ``shards``, ``shard_map``, ``policy``, ``window_sizes``,
            ``functional`` and ``placement`` works.
        max_queue_depth: bound on every per-shard queue; arrivals that find
            their queue full are rejected (backpressure).  ``None``
            disables the bound.
        shed_expired: when True, queued requests that can no longer finish
            by their deadline (``deadline <= now`` — any execution takes at
            least one layer) are shed (never executed) at the next window
            admission on their shard.
        autoscaler: elastic-fleet configuration; requires
            ``placement="shortest-queue"``.
        max_distillation_copies: most parallel copies the engine may spend
            per query on virtual distillation (Sec. 8.2) to reach the
            query's ``min_fidelity``; each extra copy consumes one window
            slot and one admission interval of backend time.  1 disables
            the retry.
        retention: what happens to the per-request records —
            ``"full"`` keeps every record and reports exact latency
            percentiles; ``"sampled"`` keeps a fixed-size uniform
            reservoir (``sample_size`` per stream) and reports sketched
            percentiles; ``"none"`` keeps no records at all, serving any
            request count in bounded memory.
        sample_size: reservoir capacity per record stream under
            ``retention="sampled"``.
        sample_seed: RNG seed of the reservoir sampler.
        telemetry_interval: when set, emit one
            :class:`~repro.metrics.streaming.IntervalStats` every this
            many raw layers (the report's ``telemetry`` time series).
        sink: optional extra :class:`~repro.metrics.sinks.RecordSink` that
            receives *every* served / rejected / window / scale record
            regardless of retention — e.g. a
            :class:`~repro.metrics.sinks.JsonlSink` for durable full
            telemetry next to a bounded-memory run.
        workers: partitioned parallel serving.  ``N >= 1`` partitions the
            fleet per shard, serves the partitions in up to ``N`` forked
            worker processes and merges the events back deterministically
            — the report is bit-identical to ``workers=1``, and on the
            configurations :mod:`repro.engine.partition` can prove
            independent, identical to the single-process oracle.
            Unpartitionable runs (replicated placement, autoscaling,
            closed-loop sources, shared-RNG policies, external sinks)
            fall back to the oracle with the reason recorded on
            ``report.parallel``.  ``0`` forces the single-process oracle;
            ``None`` (default) reads the ``REPRO_WORKERS`` environment
            variable, which only ever parallelizes provably
            oracle-identical configurations.
        sanitize: runtime invariant checking.  When True every run asserts
            clock monotonicity, nondecreasing heap-key order, that windows
            only start on idle shards, and the conservation invariant
            ``offered == served + rejected + queued`` at every window
            drain (queues empty at end of run); violations raise
            :class:`~repro.engine.events.SanitizerViolation`.  ``None``
            (the default) reads the ``REPRO_SANITIZE`` environment
            variable, which is how CI runs the whole test suite
            sanitized.
        profile: hot-path stage profiling.  When True the run attributes
            per-stage invocation counts (and wall seconds, when a host
            clock is injected into :mod:`repro.perf.profiler`) to the
            named engine stages and lands the table on the report's
            ``profile`` field.  Profiling is observational: the report is
            otherwise identical to an unprofiled run.  ``None`` (the
            default) reads the ``REPRO_PROFILE`` environment variable.

    Engines are reusable: ``run`` resets all per-run state (queues, seen
    ids, busy times, telemetry, caches) on entry, so consecutive runs of
    the same engine are independent and identical given identical
    workloads.
    """

    def __init__(
        self,
        # Duck-typed on purpose (see the docstring): a QRAMService or any
        # object with the same shards/shard_map/policy/placement surface.
        fleet: Any,
        *,
        max_queue_depth: int | None = None,
        shed_expired: bool = False,
        autoscaler: AutoscalerConfig | None = None,
        max_distillation_copies: int = 1,
        retention: str = "full",
        sample_size: int = 1024,
        sample_seed: int = 0,
        telemetry_interval: float | None = None,
        sink: RecordSink | None = None,
        sanitize: bool | None = None,
        workers: int | None = None,
        profile: bool | None = None,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 0")
        if max_distillation_copies < 1:
            raise ValueError("max_distillation_copies must be >= 1")
        if retention not in RETENTIONS:
            raise ValueError(
                f"unknown retention {retention!r}; expected one of {RETENTIONS}"
            )
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if telemetry_interval is not None and telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")
        if autoscaler is not None:
            placement = getattr(fleet, "placement", None)
            if placement != "shortest-queue":
                raise ValueError(
                    "autoscaling requires shortest-queue placement (replicated "
                    f"shards); the fleet uses {placement!r}"
                )
            if not autoscaler.min_shards <= len(fleet.shards) <= autoscaler.max_shards:
                raise ValueError(
                    f"the fleet starts with {len(fleet.shards)} shard(s), "
                    f"outside the autoscaler's [{autoscaler.min_shards}, "
                    f"{autoscaler.max_shards}] bounds"
                )
        self.fleet = fleet
        self.max_queue_depth = max_queue_depth
        self.shed_expired = shed_expired
        self.autoscaler = autoscaler
        self.max_distillation_copies = max_distillation_copies
        self.retention = retention
        self.sample_size = sample_size
        self.sample_seed = sample_seed
        self.telemetry_interval = telemetry_interval
        self.sink = sink
        self.sanitize = _env_sanitize() if sanitize is None else bool(sanitize)
        self.workers = workers
        self.profile = env_profile() if profile is None else bool(profile)
        # Names of the methods the *previous* run's profiler wrapped (see
        # ``_reset``); only these are unwound, never unrelated overrides.
        self._profiled_wrapped: tuple[str, ...] = ()
        # The shard a parallel worker's child engine serves (None on every
        # other engine).  A child refuses arrivals routed elsewhere, and
        # skips dedup: it sees a single shard's sparse id stream, which
        # would blow the contiguous-prefix watermark of _SeenIds into a
        # set, while the parent validates the full dense stream.
        self._owned_shard: int | None = None

    # ------------------------------------------------------------------ run
    def _make_sink(self, stream: int) -> RecordSink:
        """One per-run record sink for the engine's retention mode."""
        if self.retention == "full":
            return ListSink()
        if self.retention == "sampled":
            # Offset the seed per stream so the served / window / rejected
            # reservoirs draw independent samples.
            return SamplingSink(self.sample_size, seed=self.sample_seed + stream)
        return NullSink()

    def _reset(self, source: WorkloadSource) -> None:
        """(Re)initialize every piece of per-run state.

        Called at the top of every ``run``, which makes engines reusable:
        nothing from a previous run — seen ids, queues, busy times, scaled
        replicas, caches, telemetry — leaks into the next.
        """
        fleet = self.fleet
        self._source = source
        self._heap = EventHeap(sanitize=self.sanitize)
        self._offered = 0
        self._backends = list(fleet.shards)
        self._window_sizes = list(fleet.window_sizes)
        num_shards = len(self._backends)
        self._queues: list[list[QueryRequest]] = [[] for _ in range(num_shards)]
        self._busy_until = [0.0] * num_shards
        self._window_pending = [False] * num_shards
        self._active = [True] * num_shards
        self._max_depth = {shard: 0 for shard in range(num_shards)}
        self._seen_ids = _SeenIds() if self._owned_shard is None else None
        self._local_amps: dict[int, Mapping[int, complex]] = {}
        self._copies: dict[int, int] = {}
        self._outputs: dict[int, dict[tuple[int, int], complex]] = {}
        # Read once per run: the hot path branches on these every event.
        self._functional = bool(fleet.functional)
        # Whether any admitted request carried a fidelity SLO this run.
        # Gates the per-window SLO re-validation and batch capping — both
        # no-ops (and re-derivable from the queue) while this is False.
        self._slo_seen = False
        # Frozen per-shard events are reusable singletons: one WindowStart
        # / WindowDrain per shard and one ClientThink per client serve the
        # whole run instead of one allocation per event.
        self._start_events = [WindowStart(shard) for shard in range(num_shards)]
        self._drain_events = [WindowDrain(shard) for shard in range(num_shards)]
        self._think_events: dict[int, ClientThink] = {}
        # The observation path: per-stream sinks, plain counters (what
        # conservation and the empty-run check read) and, unless records
        # are fully retained, the online aggregates.  Full retention
        # summarizes its canonical-order records once at the end, so an
        # online aggregator would be a second pass over every record.
        self._served_sink = self._make_sink(0)
        self._window_sink = self._make_sink(1)
        self._rejected_sink = self._make_sink(2)
        self._scale_sink = self._make_sink(3)
        self._served_count = 0
        self._rejected_count = 0
        self._shed_count = 0
        self._aggregator: StreamingServiceAggregator | None = (
            None if self.retention == "full" else StreamingServiceAggregator()
        )
        # Traffic events (arrivals / thinks / window starts / drains) still
        # in the heap — the liveness signal recurring ticks (ScaleCheck,
        # TelemetryTick) use to decide whether to reschedule without
        # keeping each other alive forever.
        self._traffic_events = 0
        # Telemetry interval accumulators.  The raw tuples mirror the
        # emitted IntervalStats counters (start, end, arrivals, served,
        # rejected, shed, windows, depth_total, depth_max, fidelity_total,
        # fidelity_count): the parallel merge recombines partitions'
        # intervals from these totals, which plain IntervalStats cannot
        # provide (mean_fidelity loses its count).
        self._telemetry: list[IntervalStats] = []
        self._telemetry_raw: list[
            tuple[float, float, int, int, int, int, int, int, int, float, int]
        ] = []
        self._tick_start = 0.0
        self._tick_arrivals = 0
        self._tick_served = 0
        self._tick_rejected = 0
        self._tick_shed = 0
        self._tick_windows = 0
        # Per-shard partial sums, combined with an exactly-rounded fsum at
        # flush time: a partitioned run accumulates each shard's fidelities
        # on its own child engine, so a global left-to-right += would make
        # the oracle's interval mean differ from the merge in the last bit
        # (float addition is not associative).  fsum over identical
        # per-shard partials is order-independent, so both paths agree
        # byte-for-byte.
        self._tick_fidelity_totals: dict[int, float] = {}
        self._tick_fidelity_count = 0
        self._now = 0.0
        # Profiling wraps bound methods in per-stage counters.  The
        # wrappers live in the instance __dict__, so exactly the ones a
        # previous run installed are dropped first — engines are reusable
        # and a second profiled run must not double-wrap the first run's
        # wrappers (and an unrelated instance-level override, e.g. a test
        # stub, must survive untouched).
        for name in self._profiled_wrapped:
            self.__dict__.pop(name, None)
        self._profiled_wrapped = ()
        self._profiler: HotPathProfiler | None = None
        if self.profile:
            profiler = HotPathProfiler()
            self._profiler = profiler
            for stage, name in _PROFILED_STAGES:
                setattr(self, name, profiler.timed(stage, getattr(self, name)))
            self._profiled_wrapped = tuple(
                name for _, name in _PROFILED_STAGES
            )
            self._heap.push = profiler.timed(  # type: ignore[method-assign]
                "heap_push", self._heap.push
            )

    def run(self, source: WorkloadSource, clops: float = 1.0e6) -> ServiceReport:
        """Serve one workload to completion and report what happened.

        With ``workers`` set (or ``REPRO_WORKERS`` on a provably
        oracle-identical configuration) the run is dispatched to the
        partitioned parallel path of :mod:`repro.engine.parallel`; any
        configuration that cannot be partitioned exactly falls back to
        this single-process oracle with the reason recorded on the
        report's ``parallel`` field.

        Args:
            source: the traffic (open-loop trace — materialized or
                streaming — or closed-loop clients).
            clops: hardware clock used for the queries-per-second numbers.
        """
        requested = self.workers
        if requested is None:
            env = _env_workers()
            if (
                env is not None
                and self.retention == "full"
                and self.telemetry_interval is None
                and self.sink is None
            ):
                requested = env
        parallel_info: ParallelRunInfo | None = None
        if requested is not None and requested >= 1:
            reason = partition_unsupported_reason(self, source)
            if reason is None:
                # Imported lazily: the parallel module builds child
                # ServiceEngines, so the import must not be circular at
                # module load.
                from repro.engine.parallel import run_partitioned

                return run_partitioned(self, source, requested, clops)
            parallel_info = ParallelRunInfo(
                workers=0,
                partitions=0,
                fallback_reason=reason,
                worker_seconds=(),
            )
        self._run_events(source)
        return self._finalize(clops, parallel_info)

    def _run_events(self, source: WorkloadSource) -> None:
        """Drain one workload's event heap to empty (the oracle loop).

        Resets all per-run state, runs every event, flushes trailing
        telemetry and performs the end-of-run sanitizer checks — but does
        not build the report: parallel workers run exactly this on their
        partition and ship the raw state back for the deterministic merge.
        """
        self._reset(source)
        source.start(self)
        if self.autoscaler is not None:
            self._heap.push(self.autoscaler.period, ScaleCheck())
        if self.telemetry_interval is not None:
            self._heap.push(self.telemetry_interval, TelemetryTick())

        # The drain loop is the innermost hot loop of every run: bind the
        # heap and its pop once, branch on exact event classes (events are
        # final dataclasses, ordered here by serving frequency), and keep
        # the sanitizer check behind one cached flag.
        heap = self._heap
        pop = heap.pop
        if self._profiler is not None:
            pop = self._profiler.timed("heap_pop", pop)
        sanitize = self.sanitize
        while heap:
            now, event = pop()
            cls = event.__class__
            if sanitize:
                if now < self._now:
                    raise SanitizerViolation(
                        f"virtual clock moved backwards: popped "
                        f"{cls.__name__} at {now} after {self._now}"
                    )
                if cls is WindowDrain:
                    self._check_conservation(now)
            self._now = now
            if cls is ClientThink:
                self._traffic_events -= 1
                request = source.next_request(event.client_id, now)
                if request is not None:
                    self._on_arrival(now, request)
            elif cls is WindowDrain:
                self._traffic_events -= 1
                self._maybe_start(event.shard, now)
            elif cls is WindowStart:
                self._traffic_events -= 1
                self._on_window_start(now, event.shard)
            elif cls is ScaleCheck:
                self._on_scale_check(now)
            elif cls is TelemetryTick:
                self._on_telemetry_tick(now)

        if self.telemetry_interval is not None and (
            self._tick_arrivals
            or self._tick_served
            or self._tick_rejected
            or self._tick_windows
        ):
            # Safety net: a tick reschedules while work remains, so by
            # construction nothing countable happens after the final tick
            # — but if that invariant ever breaks, flush the activity
            # rather than lose it.  Time alone (e.g. a trailing ScaleCheck
            # popping after the last tick) does not warrant an extra
            # all-zero interval off the tick grid.
            self._flush_interval(max(self._now, self._tick_start))
        if self.sanitize:
            queued = sum(len(queue) for queue in self._queues)
            if queued:
                raise SanitizerViolation(
                    f"run ended with {queued} request(s) still queued"
                )
            self._check_conservation(self._now)

    def _finalize(
        self, clops: float, parallel_info: ParallelRunInfo | None = None
    ) -> ServiceReport:
        """Build the report from the drained engine state.

        Record lists are put in canonical order — served by
        ``(finish_layer, query_id)``, windows by ``(admit_layer, shard)``,
        rejections by ``(time, query_id)`` — the same order the parallel
        merge reconstructs, so a partitioned report can be compared to the
        oracle field by field.
        """
        if not self._served_count:
            offered = self._rejected_count
            if offered:
                raise ValueError(
                    f"no queries were served: all {offered} offered requests "
                    "were rejected or shed (loosen max_queue_depth / deadlines)"
                )
            raise ValueError("the workload source produced no requests")

        served = list(self._served_sink.records) if self.retention != "none" else []
        served.sort(key=lambda s: (s.finish_layer, s.query_id))
        windows = list(self._window_sink.records) if self.retention != "none" else []
        windows.sort(key=lambda w: (w.admit_layer, w.shard))
        rejected = (
            list(self._rejected_sink.records) if self.retention != "none" else []
        )
        rejected.sort(key=lambda r: (r.time, r.query_id))
        scale_events = (
            list(self._scale_sink.records) if self.retention != "none" else []
        )
        if self._aggregator is None:
            # Full retention: canonical (completion) order fixes the
            # summation order, so the stats are independent of event
            # interleaving.
            stats = summarize_service(
                served,
                windows,
                self._max_depth,
                clops=clops,
                rejected=rejected,
            )
        else:
            stats = self._aggregator.to_stats(self._max_depth, clops=clops)
        return ServiceReport(
            served=served,
            windows=windows,
            stats=stats,
            outputs=self._outputs,
            rejected=rejected,
            scale_events=scale_events,
            telemetry=self._telemetry,
            retention=self.retention,
            parallel=parallel_info,
            profile=(
                self._profiler.snapshot() if self._profiler is not None else None
            ),
            cache_stats=default_registry().stats(),
        )

    # ----------------------------------------------- source-facing scheduling
    def schedule_think(self, client_id: int, time: float) -> None:
        """Schedule a client's next issue instant (every arrival's path).

        Closed-loop clients call this after each completion; a
        :class:`~repro.engine.workload.TraceSource` paces its one pending
        request on it.

        Every arrival at an instant precedes its window admissions.  A
        think ending at the current instant after that arrival phase has
        closed — a zero-think client whose request a :class:`WindowStart`
        just shed or refused — issues at the next representable instant:
        scheduling it into the closed phase would pop an earlier event key
        after a later one.
        """
        time = max(0.0, time)
        if time == self._now and self._heap.last_priority > ClientThink.PRIORITY:
            time += math.ulp(time)  # the next representable instant
        self._traffic_events += 1
        event = self._think_events.get(client_id)
        if event is None:
            event = self._think_events[client_id] = ClientThink(client_id)
        self._heap.push(time, event)

    # ------------------------------------------------------------ recording
    def _record_served(self, record: ServedQuery) -> None:
        self._served_sink.append(record)
        self._served_count += 1
        if self._aggregator is not None:
            self._aggregator.observe_served(record)
        if self.sink is not None:
            self.sink.append(record)
        self._tick_served += 1
        if record.fidelity is not None:
            totals = self._tick_fidelity_totals
            totals[record.shard] = totals.get(record.shard, 0.0) + record.fidelity
            self._tick_fidelity_count += 1

    def _record_window(self, record: WindowRecord) -> None:
        self._window_sink.append(record)
        if self._aggregator is not None:
            self._aggregator.observe_window(record)
        if self.sink is not None:
            self.sink.append(record)
        self._tick_windows += 1

    def _record_rejected(self, record: RejectedQuery) -> None:
        self._rejected_sink.append(record)
        self._rejected_count += 1
        if self._aggregator is not None:
            self._aggregator.observe_rejected(record)
        if self.sink is not None:
            self.sink.append(record)
        self._tick_rejected += 1
        if record.reason == REJECT_DEADLINE_EXPIRED:
            self._shed_count += 1
            self._tick_shed += 1

    def _record_scale(self, record: ScaleEvent) -> None:
        # Scale events follow the retention mode like every other record
        # stream: O(transitions) is not O(requests), but an oscillating
        # autoscaler on a long-haul run would still grow without bound.
        self._scale_sink.append(record)
        if self.sink is not None:
            self.sink.append(record)

    # ------------------------------------------------------------- handlers
    def _on_arrival(self, now: float, request: QueryRequest) -> None:
        self._tick_arrivals += 1
        amplitudes = check_request(request, self._seen_ids)
        # Every validated arrival is "offered" — it must end up served,
        # rejected, or still queued (the conservation invariant the
        # sanitizer checks at every drain).
        self._offered += 1
        shard, local = self.fleet.shard_map.route(amplitudes)
        if self._owned_shard is not None and shard != self._owned_shard:
            raise ValueError(
                f"query_id {request.query_id} routes to shard {shard} but "
                f"arrived in shard {self._owned_shard}'s partition: a trace "
                "factory called with shards=(s, ...) must yield only the "
                "requests those shards own"
            )
        if self.sanitize and type(amplitudes) is not dict:
            self._check_route(amplitudes, shard, local)
        if shard == ANY_SHARD:
            # Fidelity-aware placement: replicated shards all hold the full
            # memory, so prefer the shortest queue among the replicas that
            # can meet the request's fidelity SLO (with distillation if
            # allowed) — in a mixed fleet that is how SLO-carrying traffic
            # lands on the encoded replicas.
            candidates = self._active_shards()
            if request.min_fidelity is not None:
                candidates = [
                    s for s in candidates
                    if self._feasible_copies(s, request) is not None
                ]
            if not candidates:
                self._reject(request, self._shortest_queue(now), now, REJECT_FIDELITY)
                return
            shard = self._shortest_queue(now, candidates)
        copies = self._feasible_copies(shard, request)
        if copies is None:
            self._reject(request, shard, now, REJECT_FIDELITY)
            return
        queue = self._queues[shard]
        if self.max_queue_depth is not None and len(queue) >= self.max_queue_depth:
            self._reject(request, shard, now, REJECT_QUEUE_FULL)
            return
        if request.min_fidelity is not None:
            self._slo_seen = True
        # Per-query routing state is only tracked when a downstream reader
        # exists: copy counts matter past 1 (readers default to 1), local
        # amplitudes only reach the backend on functional windows.
        if copies != 1:
            self._copies[request.query_id] = copies
        if self._functional:
            self._local_amps[request.query_id] = local
        queue.append(request)
        depth = len(queue)
        if depth > self._max_depth[shard]:
            self._max_depth[shard] = depth
        self._maybe_start(shard, now)

    def _predicted_fidelities(self, shard: int, occupancy: int) -> tuple[float, ...]:
        """``backend.predicted_window_fidelities(occupancy)`` for one shard.

        Memoization lives with the backend now, not the engine: every
        backend keeps an instance memo and shares the derived vectors
        through the process-wide
        :class:`~repro.schedule_cache.ScheduleCacheRegistry`, so
        autoscaled replicas and forked workers inherit warm predictions
        and an engine-level cache (with its fleet-change invalidation
        hazard) has nothing left to add.
        """
        return self._backends[shard].predicted_window_fidelities(occupancy)

    def _feasible_copies(self, shard: int, request: QueryRequest) -> int | None:
        """Fewest parallel copies that lift the shard's predicted fidelity
        over the request's SLO (1 without an SLO or when the bare prediction
        already suffices); ``None`` when even the most copies the engine may
        spend cannot reach the target.

        The copies are modelled as what they are — extra pipelined
        admissions — so ``k`` copies distill the *worst slot* of a
        ``k``-query window, not the lone-query bound: spending more copies
        also costs more crosstalk, and both sides of that trade-off are in
        the check.
        """
        if request.min_fidelity is None:
            return 1
        most = min(self.max_distillation_copies, self._window_sizes[shard])
        for copies in range(1, most + 1):
            worst = min(self._predicted_fidelities(shard, copies))
            if _distilled(worst, copies) >= request.min_fidelity:
                return copies
        return None

    def _batch_predictions(self, shard: int, batch: list[QueryRequest]) -> list[float]:
        """Per-request predicted fidelity of one window, copies included.

        Distillation copies are extra pipelined admissions sharing the
        window (they are also charged that way in ``_execute_window``), so
        the window is predicted at its full occupancy — ``sum(copies)``
        slots — request ``j`` owning the contiguous slot run of its copies.
        Each request's prediction is its worst copy slot, distilled.
        """
        copies = [self._copies.get(r.query_id, 1) for r in batch]
        expanded = self._predicted_fidelities(shard, sum(copies))
        predictions = []
        offset = 0
        for count in copies:
            worst = min(expanded[offset:offset + count])
            predictions.append(_distilled(worst, count))
            offset += count
        return predictions

    def _reject(
        self, request: QueryRequest, shard: int, now: float, reason: str
    ) -> None:
        """Record one refusal and let the source react (closed-loop clients
        pace on rejections exactly as they pace on completions)."""
        self._copies.pop(request.query_id, None)
        self._local_amps.pop(request.query_id, None)
        record = RejectedQuery(
            query_id=request.query_id,
            tenant=request.qpu,
            shard=shard,
            time=now,
            reason=reason,
            deadline=request.deadline,
            min_fidelity=request.min_fidelity,
        )
        self._record_rejected(record)
        self._source.on_rejection(self, record)

    def _maybe_start(self, shard: int, now: float) -> None:
        """Schedule a window admission on an idle shard with queued work."""
        if (
            self._active[shard]
            and self._queues[shard]
            and not self._window_pending[shard]
            and self._busy_until[shard] <= now
        ):
            self._window_pending[shard] = True
            self._traffic_events += 1
            self._heap.push(now, self._start_events[shard])

    def _on_window_start(self, now: float, shard: int) -> None:
        self._window_pending[shard] = False
        if not self._active[shard] or self._busy_until[shard] > now:
            return
        queue = self._queues[shard]
        if self.shed_expired and queue:
            kept: list[QueryRequest] = []
            for request in queue:
                # A request whose deadline is exactly `now` can no longer
                # finish on time (execution takes at least one layer), so
                # the boundary sheds — matching `missed_deadline`, which
                # only forgives finish_layer <= deadline.
                if request.deadline is not None and request.deadline <= now:
                    self._reject(request, shard, now, REJECT_DEADLINE_EXPIRED)
                else:
                    kept.append(request)
            queue[:] = kept
        if self._slo_seen and any(
            request.min_fidelity is not None for request in queue
        ):
            # Re-validate fidelity SLOs against *this* shard: rebalancing
            # may have migrated a request admitted elsewhere.  A request
            # this shard cannot serve is refused rather than silently run
            # below its target; feasible ones get their copy count pinned
            # to this shard's prediction.  (``_slo_seen`` gates the queue
            # scan itself: a run that never admitted an SLO has nothing to
            # re-validate.)
            kept = []
            for request in queue:
                copies = self._feasible_copies(shard, request)
                if copies is None:
                    self._reject(request, shard, now, REJECT_FIDELITY)
                else:
                    self._copies[request.query_id] = copies
                    kept.append(request)
            queue[:] = kept
        if not queue:
            return
        batch = self.fleet.policy.select(queue, self._window_sizes[shard], now)
        if self._slo_seen:
            batch = self._cap_batch_for_fidelity(shard, batch, queue)
        self._execute_window(shard, batch, now)

    def _cap_batch_for_fidelity(
        self, shard: int, batch: list[QueryRequest], queue: list[QueryRequest]
    ) -> list[QueryRequest]:
        """Shrink a selected batch until every fidelity SLO in it is met.

        Two window-level effects can break a per-query feasible admission:
        pipelining-depth degradation (a full window predicts lower slot
        fidelities than a lone query) and the distillation copies of the
        batched queries overflowing the window's parallelism.  Dropping the
        last-admitted request back to the queue head restores both
        invariants; a batch of one is always feasible by admission.
        """
        if all(request.min_fidelity is None for request in batch):
            return batch
        limit = self._window_sizes[shard]
        while len(batch) > 1:
            occupancy = sum(self._copies.get(r.query_id, 1) for r in batch)
            predicted = self._batch_predictions(shard, batch)
            feasible = occupancy <= limit and all(
                request.min_fidelity is None
                or predicted[slot] >= request.min_fidelity
                for slot, request in enumerate(batch)
            )
            if feasible:
                break
            queue.insert(0, batch.pop())
        return batch

    def _execute_window(
        self, shard: int, batch: list[QueryRequest], admit: float
    ) -> None:
        """Run one pipeline window on one backend, at absolute layer ``admit``.

        The backend receives shard-local requests (translated address
        superpositions) and renumbers them to window slots internally, so
        its schedule and lowering caches are shared across every window of
        the run.
        """
        if self.sanitize and self._busy_until[shard] > admit:
            raise SanitizerViolation(
                f"window admitted on busy shard {shard}: busy until "
                f"{self._busy_until[shard]}, admitted at {admit}"
            )
        backend = self._backends[shard]
        functional = self._functional
        if functional:
            local_requests = [
                QueryRequest(
                    query_id=request.query_id,
                    address_amplitudes=self._local_amps[request.query_id],
                    request_time=request.request_time,
                    qpu=request.qpu,
                    initial_bus=request.initial_bus,
                    priority=request.priority,
                )
                for request in batch
            ]
        else:
            # Timing-only windows never read per-request state (every
            # adapter serves them from its memoized timing window), so the
            # shard-local renumbered copies would be pure allocation.
            local_requests = batch
        profiler = self._profiler
        if profiler is None:
            result = backend.run_window(local_requests, functional=functional)
        else:
            result = profiler.call(
                "run_window", backend.run_window, local_requests,
                functional=functional,
            )
        copies_map = self._copies
        if copies_map:
            predictions = self._batch_predictions(shard, batch)
        else:
            # No in-flight distillation: the window's predictions are the
            # backend's occupancy vector verbatim (one copy per slot, and
            # distillation at one copy is the identity).
            predictions = self._predicted_fidelities(shard, len(batch))

        keep_outputs = functional and self.retention == "full"
        for slot, request in enumerate(batch):
            # Functional outputs are per-request state the report keys by
            # query id — retaining them for every query is exactly the
            # unbounded growth the sampled / none modes exist to avoid.
            if keep_outputs and result.outputs[slot] is not None:
                self._outputs[request.query_id] = self.fleet.shard_map.to_global_outputs(
                    shard, result.outputs[slot]
                )
            copies = copies_map.get(request.query_id, 1) if copies_map else 1
            slot_fidelity = result.fidelities[slot]
            record = ServedQuery._from_fields(
                query_id=request.query_id,
                tenant=request.qpu,
                shard=shard,
                request_time=request.request_time,
                admit_layer=admit,
                start_layer=admit + result.start_offsets[slot],
                finish_layer=admit + result.finish_offsets[slot],
                # Distillation delivers the distilled state: its suppression
                # applies to the slot's quality, measured or predicted.
                fidelity=(
                    slot_fidelity
                    if copies == 1 or slot_fidelity is None
                    else _distilled(slot_fidelity, copies)
                ),
                architecture=backend.name,
                deadline=request.deadline,
                predicted_fidelity=predictions[slot],
                min_fidelity=request.min_fidelity,
                distillation_copies=copies,
            )
            self._record_served(record)
            self._source.on_completion(self, record)
        # Distillation copies are extra admissions into the same window:
        # each one keeps the backend busy for one more admission interval.
        if copies_map:
            extra_copies = sum(
                copies_map.get(r.query_id, 1) - 1 for r in batch
            )
        else:
            extra_copies = 0
        total_layers = result.total_layers
        if extra_copies:
            total_layers += float(extra_copies * result.interval)
        self._record_window(
            WindowRecord._from_fields(
                shard=shard,
                admit_layer=admit,
                batch_size=len(batch),
                interval=result.interval,
                total_layers=total_layers,
                architecture=backend.name,
            )
        )
        # The per-query routing state is dead once the window is recorded;
        # dropping it keeps the engine's footprint independent of how many
        # requests a run serves.
        if copies_map:
            for request in batch:
                copies_map.pop(request.query_id, None)
        if self._local_amps:
            for request in batch:
                self._local_amps.pop(request.query_id, None)
        busy = admit + total_layers
        self._busy_until[shard] = busy
        self._traffic_events += 1
        self._heap.push(busy, self._drain_events[shard])

    # -------------------------------------------------------------- sanitizer
    def _check_route(
        self,
        amplitudes: Mapping[int, complex],
        shard: int,
        local: Mapping[int, complex],
    ) -> None:
        """Assert a routed mapping lands where its realized values do.

        Shard maps route generated (lazily drawn) superpositions by the
        shard they carry, without reading an address; realizing the draw
        and routing the plain dict through the validating path must give
        the same shard and the same local amplitudes.
        """
        eager_shard, eager_local = self.fleet.shard_map.route(dict(amplitudes))
        if eager_shard != shard or dict(local) != eager_local:
            raise SanitizerViolation(
                f"superposition routed to ({shard}, {dict(local)}) without "
                f"drawing, but its drawn values route to ({eager_shard}, "
                f"{eager_local})"
            )

    def _check_conservation(self, now: float) -> None:
        """Assert ``offered == served + rejected + queued`` right now.

        Served records are written at window-admit time, so between events
        there is no in-flight term: every offered request is either in a
        queue or already accounted as served / rejected (shed requests are
        a flavor of rejection).  Checked on every :class:`WindowDrain` and
        at end of run.
        """
        served = self._served_count
        rejected = self._rejected_count
        queued = sum(len(queue) for queue in self._queues)
        if self._offered != served + rejected + queued:
            raise SanitizerViolation(
                f"conservation broken at t={now}: offered={self._offered} "
                f"!= served={served} + rejected={rejected} + queued={queued}"
            )
        if self._shed_count > rejected:
            raise SanitizerViolation(
                f"shed count {self._shed_count} exceeds rejected "
                f"count {rejected} at t={now}"
            )

    # ------------------------------------------------------------- placement
    def _active_shards(self) -> list[int]:
        return [i for i in range(len(self._backends)) if self._active[i]]

    def _shortest_queue(self, now: float, shards: list[int] | None = None) -> int:
        """Least-loaded shard among ``shards`` (default: all active):
        fewest queued, then earliest free."""
        return min(
            self._active_shards() if shards is None else shards,
            key=lambda shard: (
                len(self._queues[shard]),
                max(self._busy_until[shard], now),
                shard,
            ),
        )

    # ------------------------------------------------------------- telemetry
    def _work_remains(self, now: float) -> bool:
        """Whether any serving activity is pending or possible.

        Counts queued requests, busy shards and *traffic* events still in
        the heap — deliberately not other recurring ticks, so a
        ScaleCheck and a TelemetryTick can coexist without keeping each
        other (and the run) alive forever.
        """
        return (
            self._traffic_events > 0
            or any(self._queues[shard] for shard in self._active_shards())
            or any(busy > now for busy in self._busy_until)
        )

    def _flush_interval(self, end: float) -> None:
        """Emit one :class:`IntervalStats` covering ``(_tick_start, end]``."""
        span = end - self._tick_start
        active = self._active_shards()
        depths = [len(self._queues[shard]) for shard in active]
        fidelity_total = math.fsum(
            self._tick_fidelity_totals[shard]
            for shard in sorted(self._tick_fidelity_totals)
        )
        self._telemetry_raw.append(
            (
                self._tick_start,
                end,
                self._tick_arrivals,
                self._tick_served,
                self._tick_rejected,
                self._tick_shed,
                self._tick_windows,
                sum(depths),
                max(depths, default=0),
                fidelity_total,
                self._tick_fidelity_count,
            )
        )
        self._telemetry.append(
            IntervalStats(
                start_layer=self._tick_start,
                end_layer=end,
                arrivals=self._tick_arrivals,
                served=self._tick_served,
                rejected=self._tick_rejected,
                shed=self._tick_shed,
                windows=self._tick_windows,
                throughput_queries_per_layer=(
                    self._tick_served / span if span > 0 else 0.0
                ),
                queue_depth_total=sum(depths),
                queue_depth_max=max(depths, default=0),
                # Rate over the interval's *dispositions* (completions +
                # refusals), which are all counted at the instant they
                # happen — dividing by arrivals would be incoherent when a
                # request sheds intervals after it arrived (rates over 1,
                # or 0.0 despite sheds).
                rejection_rate=(
                    self._tick_rejected
                    / (self._tick_served + self._tick_rejected)
                    if (self._tick_served + self._tick_rejected)
                    else 0.0
                ),
                mean_fidelity=(
                    fidelity_total / self._tick_fidelity_count
                    if self._tick_fidelity_count
                    else None
                ),
            )
        )
        self._tick_start = end
        self._tick_arrivals = 0
        self._tick_served = 0
        self._tick_rejected = 0
        self._tick_shed = 0
        self._tick_windows = 0
        self._tick_fidelity_totals = {}
        self._tick_fidelity_count = 0

    def _on_telemetry_tick(self, now: float) -> None:
        self._flush_interval(now)
        if self._work_remains(now):
            self._heap.push(now + self.telemetry_interval, TelemetryTick())

    # ----------------------------------------------------------- autoscaling
    def _on_scale_check(self, now: float) -> None:
        config = self.autoscaler
        active = self._active_shards()
        depth = max(len(self._queues[shard]) for shard in active)
        if depth >= config.high_watermark and len(active) < config.max_shards:
            self._scale_up(now, depth)
        elif depth <= config.low_watermark and len(active) > config.min_shards:
            self._scale_down(now, depth)
        if self._work_remains(now):
            self._heap.push(now + config.period, ScaleCheck())

    def _scale_up(self, now: float, depth: int) -> None:
        """Add one full-memory replica and rebalance queued work onto it.

        A previously retired replica (idle, empty, byte-identical memory —
        writes never happen mid-run) is reactivated in preference to
        building a new backend, so oscillating load does not pay repeated
        QRAM construction or grow the fleet lists without bound.
        """
        config = self.autoscaler
        inactive = [
            shard
            for shard in range(len(self._backends))
            if not self._active[shard]
        ]
        if inactive:
            shard = max(inactive)
            self._active[shard] = True
        else:
            architecture = config.architecture or self._backends[0].name
            backend = build_backend(
                architecture,
                self.fleet.shard_map.shard_capacity,
                list(self._backends[0].data),
                parameters=getattr(self.fleet, "parameters", None),
            )
            requested = getattr(self.fleet, "requested_window_size", None)
            window_size = (
                backend.query_parallelism
                if requested is None
                else max(1, min(requested, backend.query_parallelism))
            )
            # A replica of an existing memory image resolves to the warm
            # shared entry in the process-wide schedule-cache registry, so
            # scale-up never re-derives schedules the fleet already paid
            # for.
            default_registry().prewarm([backend])
            shard = len(self._backends)
            self._backends.append(backend)
            self._window_sizes.append(window_size)
            self._queues.append([])
            self._busy_until.append(0.0)
            self._window_pending.append(False)
            self._active.append(True)
            self._max_depth[shard] = 0
            self._start_events.append(WindowStart(shard))
            self._drain_events.append(WindowDrain(shard))
        # No prediction cache to invalidate here: predictions are memoized
        # on the backends themselves (shared through the schedule-cache
        # registry), so a rebuilt or reactivated replica carries its own
        # warm, correct vectors.
        self._record_scale(
            ScaleEvent(
                time=now,
                action="up",
                shard=shard,
                active_shards=len(self._active_shards()),
                trigger_depth=depth,
            )
        )
        self._rebalance(now)

    def _rebalance(self, now: float) -> None:
        """Even out queued (unadmitted) requests across active replicas.

        Replicated shards all hold the full memory, so a queued request can
        move to any replica *that can meet its fidelity SLO* (a bare
        replica must not inherit strict traffic from an encoded one): the
        newest such request of the deepest queue migrates until depths
        differ by at most one or nothing movable remains.  Shards that
        gained work start a window if idle.
        """
        active = self._active_shards()
        while True:
            deepest = max(active, key=lambda s: (len(self._queues[s]), -s))
            shallowest = min(active, key=lambda s: (len(self._queues[s]), s))
            if len(self._queues[deepest]) - len(self._queues[shallowest]) <= 1:
                break
            queue = self._queues[deepest]
            movable = next(
                (
                    index
                    for index in range(len(queue) - 1, -1, -1)
                    if self._feasible_copies(shallowest, queue[index]) is not None
                ),
                None,
            )
            if movable is None:
                break
            request = queue.pop(movable)
            if request.min_fidelity is not None:
                self._copies[request.query_id] = self._feasible_copies(
                    shallowest, request
                )
            self._queues[shallowest].append(request)
            self._max_depth[shallowest] = max(
                self._max_depth[shallowest], len(self._queues[shallowest])
            )
        for shard in active:
            self._maybe_start(shard, now)

    def _scale_down(self, now: float, depth: int) -> None:
        """Retire the highest-indexed idle, empty replica."""
        config = self.autoscaler
        candidates = [
            shard
            for shard in self._active_shards()
            if not self._queues[shard] and self._busy_until[shard] <= now
        ]
        if not candidates or len(self._active_shards()) <= config.min_shards:
            return
        shard = max(candidates)
        self._active[shard] = False
        self._record_scale(
            ScaleEvent(
                time=now,
                action="down",
                shard=shard,
                active_shards=len(self._active_shards()),
                trigger_depth=depth,
            )
        )
