"""Workload sources: one interface for open-loop traces and closed-loop clients.

The engine pulls its traffic from a :class:`WorkloadSource`.  Two families
are provided:

* :class:`TraceSource` — open loop: :class:`repro.core.query.QueryRequest`
  arrivals that never react to service latency (the Poisson / bursty
  traces of :mod:`repro.workloads.generators`), from a materialized list
  or from a trace factory that regenerates the stream (and any shard's
  part of it) on demand.  Either form is delivered one pending arrival at
  a time, so million-query factory traces are never materialized and the
  event heap holds at most one future arrival.
* :class:`ClosedLoopSource` — closed loop: ``N`` clients that alternate one
  outstanding query with ``think_layers`` of local processing, the QPU
  query/process loop of Fig. 7 (the same behaviour
  :func:`repro.scheduling.events.periodic_algorithm_arrivals` approximates
  open-loop with a nominal query latency).  Each client's next arrival
  depends on its previous completion, so throughput and latency feed back
  into the offered load.

Sources interact with the engine through three hooks: ``start`` schedules
the initial events, ``on_completion`` observes every served query, and
``next_request`` materializes a client's next request when its think time
elapses.
"""

from __future__ import annotations

from collections.abc import (
    Callable,
    Iterable,
    Mapping,
    MutableMapping,
    Sequence,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.query import QueryRequest

if TYPE_CHECKING:
    from repro.engine.core import ServiceEngine
    from repro.metrics.service_stats import RejectedQuery, ServedQuery

#: Builds the address superposition of one closed-loop request:
#: ``(client, per-client query index) -> {address: amplitude}``.
AddressFactory = Callable[["ClosedLoopClient", int], Mapping[int, complex]]


class WorkloadSource:
    """What the serving engine requires of a traffic source."""

    def start(self, engine: ServiceEngine) -> None:
        """Schedule the source's initial events (arrivals or think ticks)."""
        raise NotImplementedError

    def on_completion(self, engine: ServiceEngine, record: ServedQuery) -> None:
        """Observe one served query (closed-loop sources react here)."""

    def on_rejection(self, engine: ServiceEngine, record: RejectedQuery) -> None:
        """Observe one rejected/shed request (closed-loop sources react here).

        Without this hook a closed-loop client whose request was refused
        would never learn its query finished (badly) and would stall
        forever; sources that pace on completions must also pace on
        rejections.
        """

    def next_request(self, client_id: int, now: float) -> QueryRequest | None:
        """The next request of one client, issued at ``now`` (or ``None``)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no closed-loop clients"
        )


#: Builds an iterator over the requests owned by the given shards
#: (``None`` = the full trace).  The filtered stream must yield exactly
#: the requests the full stream yields for those shards — same ids, same
#: times, same payloads — in the same (time-sorted, strictly-increasing
#: id) order.  ``iter_poisson_trace(..., shards=...)`` is the canonical
#: implementation.
TraceFactory = Callable[[tuple[int, ...] | None], Iterable[QueryRequest]]

#: Pseudo client id a :class:`TraceSource` paces its arrivals on.
_TRACE_CLIENT = -1


class _SeenIds:
    """Exact duplicate detection that stays O(1) for monotone id streams.

    The engine must refuse duplicate query ids, but a plain ``set`` grows
    with the request count — the one bookkeeping structure that would
    break bounded-memory serving.  Generators assign ids ``0, 1, 2, ...``
    in arrival order, so this tracker keeps a *contiguous-prefix
    watermark* (every id in ``[0, watermark]`` seen) plus a sparse
    overflow set that drains back into the watermark as gaps fill.  For
    the monotone streams every trace and closed-loop source produces, the
    overflow set stays empty; arbitrary (sparse or out-of-order) ids
    remain correct and merely fall back to set behaviour.
    """

    __slots__ = ("_watermark", "_sparse")

    def __init__(self) -> None:
        self._watermark = -1
        self._sparse: set[int] = set()

    def add(self, query_id: int) -> bool:
        """Record one id; True when it was already seen."""
        if 0 <= query_id <= self._watermark or query_id in self._sparse:
            return True
        self._sparse.add(query_id)
        while self._watermark + 1 in self._sparse:
            self._watermark += 1
            self._sparse.discard(self._watermark)
        return False

    def __len__(self) -> int:
        return (self._watermark + 1) + len(self._sparse)


def check_request(
    request: QueryRequest, seen: _SeenIds | None
) -> Mapping[int, complex]:
    """The per-arrival checks every served request passes, in order.

    A duplicate id (when ``seen`` tracks the stream's ids), missing
    amplitudes, then a ``min_fidelity`` outside ``(0, 1]``.  The engine
    runs this on every arrival and :func:`split_trace` on every request of
    a trace it partitions, so an invalid trace raises the same error on
    both paths.

    Returns:
        The request's (present) address amplitudes.
    """
    if seen is not None and seen.add(request.query_id):
        raise ValueError(
            f"duplicate query_id {request.query_id} in trace; "
            "query ids key the per-request results and must be unique"
        )
    amplitudes = request.address_amplitudes
    if amplitudes is None:
        raise ValueError("service requests require address amplitudes")
    if request.min_fidelity is not None and not 0.0 < request.min_fidelity <= 1.0:
        raise ValueError("min_fidelity must be in (0, 1]")
    return amplitudes


def _check_arrival_time(request: QueryRequest, last_time: float) -> None:
    """Refuse a negative time, then one not at or after ``last_time``."""
    time = request.request_time
    if time < 0:
        raise ValueError(
            f"request {request.query_id} has negative request_time "
            f"{time}; arrivals must be at time >= 0"
        )
    if not time >= last_time:
        raise ValueError(
            "traces must be sorted by request_time "
            f"(saw {time} after {last_time})"
        )


def split_trace(
    requests: Sequence[QueryRequest], shard_map: Any
) -> list[list[QueryRequest]]:
    """Partition a time-sorted trace by owning shard, validating like the oracle.

    Replays the single-process engine's checks in its order: the arrival
    time when the request is pulled, then :func:`check_request` and the
    shard map's own shard-spanning-superposition refusal when it arrives.
    A trace that raises on the oracle path raises the identical error
    here, before any worker is forked.

    Args:
        requests: the trace in ``(request_time, query_id)`` order (a
            :class:`TraceSource`'s ``requests``).
        shard_map: the fleet's shard map (``route`` decides ownership).

    Returns:
        One bucket per shard, each preserving the trace order.
    """
    buckets: list[list[QueryRequest]] = [
        [] for _ in range(shard_map.num_shards)
    ]
    seen = _SeenIds()
    last_time = 0.0
    for request in requests:
        _check_arrival_time(request, last_time)
        last_time = request.request_time
        shard, _ = shard_map.route(check_request(request, seen))
        buckets[shard].append(request)
    return buckets


class TraceSource(WorkloadSource):
    """Open-loop traffic: requests whose arrival times never react to service.

    Built from either of two inputs:

    * ``requests`` — a request sequence, sorted into
      ``(request_time, query_id)`` order (the admission order of the
      legacy ``QRAMService.serve`` loop) and kept on :attr:`requests`;
    * ``factory`` — a :data:`TraceFactory`, called at every run so the
      trace is regenerated rather than materialized (the lazy
      ``iter_poisson_trace`` / ``iter_bursty_trace`` generators); its
      stream must be time-sorted with strictly increasing ids, which is
      checked as it is consumed.  :attr:`requests` is ``None``.

    Either way the source holds exactly one pending request, paced on a
    :class:`~repro.engine.events.ClientThink` of a pseudo client: each
    arrival, once delivered, pulls and schedules the next.  The event heap
    holds at most one future arrival, so a factory-backed run takes memory
    independent of trace length.

    :meth:`shard_sources` is the partition hook of parallel serving.
    """

    def __init__(
        self,
        requests: Iterable[QueryRequest] | None = None,
        *,
        factory: TraceFactory | None = None,
    ) -> None:
        self.requests: list[QueryRequest] | None = None
        self._factory: TraceFactory
        if factory is None:
            ordered = sorted(
                requests or (), key=lambda r: (r.request_time, r.query_id)
            )
            if not ordered:
                raise ValueError("at least one request is required")
            self.requests = ordered
            self._factory = lambda shards: ordered
        elif requests is not None:
            raise ValueError("pass a request sequence or a factory, not both")
        else:
            self._factory = factory
        #: The shard filter handed to the factory: set only on the
        #: per-shard sources of :meth:`shard_sources`, whose stream may be
        #: empty.
        self._shards: tuple[int, ...] | None = None

    def shard_sources(self, shard_map: Any) -> dict[int, TraceSource]:
        """The per-shard sources of a parallel run, keyed by shard.

        A request sequence is split here by :func:`split_trace`, which
        validates the whole trace before anything is served, and shards
        owning no request get no source.  A factory yields one source per
        shard of ``shard_map``, each regenerating only that shard's
        requests (``factory((shard,))``) when started.
        """
        if self.requests is not None:
            buckets = split_trace(self.requests, shard_map)
            return {
                shard: TraceSource(bucket)
                for shard, bucket in enumerate(buckets)
                if bucket
            }
        sources: dict[int, TraceSource] = {}
        for shard in range(shard_map.num_shards):
            source = TraceSource(factory=self._factory)
            source._shards = (shard,)
            sources[shard] = source
        return sources

    def start(self, engine: ServiceEngine) -> None:
        self._engine = engine
        self._iterator = iter(self._factory(self._shards))
        self._last_time = 0.0
        self._last_id: int | None = None
        self._pending = self._pull()
        if self._pending is None:
            if self._shards is None:
                raise ValueError("at least one request is required")
            return
        engine.schedule_think(_TRACE_CLIENT, self._pending.request_time)

    def _pull(self) -> QueryRequest | None:
        """The stream's next request, order-checked (``None`` at its end)."""
        request = next(self._iterator, None)
        if request is None:
            return None
        _check_arrival_time(request, self._last_time)
        self._last_time = request.request_time
        if self.requests is None:
            if self._last_id is not None and request.query_id <= self._last_id:
                raise ValueError(
                    f"trace factory yielded query_id {request.query_id} "
                    f"after {self._last_id}; factory streams must carry "
                    "strictly increasing ids (ids key the per-request "
                    "results fleet-wide)"
                )
            self._last_id = request.query_id
        return request

    def next_request(self, client_id: int, now: float) -> QueryRequest | None:
        request = self._pending
        self._pending = self._pull()
        if self._pending is not None:
            self._engine.schedule_think(_TRACE_CLIENT, self._pending.request_time)
        return request


@dataclass
class ClosedLoopClient:
    """One closed-loop client: query, wait for the result, think, repeat.

    Attributes:
        client_id: identifier; doubles as the tenant (``qpu``) of every
            request the client issues.
        queries: total queries the client issues before retiring.
        think_layers: local processing time between a query's completion
            and the next request (``d`` in the paper's Fig. 7 loops).
        start_time: when the client issues its first request.
        deadline_layers: per-request relative deadline (absolute deadline =
            issue time + ``deadline_layers``); ``None`` for best-effort.
        min_fidelity: per-request fidelity SLO carried by every query the
            client issues; ``None`` for best-effort.
    """

    client_id: int
    queries: int
    think_layers: float
    start_time: float = 0.0
    deadline_layers: float | None = None
    min_fidelity: float | None = None

    def __post_init__(self) -> None:
        if self.queries < 0:
            raise ValueError("queries must be >= 0")
        if self.think_layers < 0:
            raise ValueError("think_layers must be >= 0")


class ClosedLoopSource(WorkloadSource):
    """Closed-loop traffic from a fleet of think-time clients.

    Each client holds at most one query in flight: its next request is
    issued ``think_layers`` after the previous one completes.  Query ids
    are assigned from one global counter in issue order, which is
    deterministic for a fixed engine seed and fleet.

    Args:
        clients: the client fleet (client ids must be unique).
        address_factory: builds each request's address superposition from
            ``(client, per-client query index)``.  Interleaved services
            need shard-aligned superpositions; see
            :func:`repro.workloads.generators.closed_loop_source` for a
            ready-made seeded factory.
    """

    def __init__(
        self,
        clients: Sequence[ClosedLoopClient],
        address_factory: AddressFactory,
    ) -> None:
        if not clients:
            raise ValueError("at least one client is required")
        self.clients = {client.client_id: client for client in clients}
        if len(self.clients) != len(clients):
            raise ValueError("client ids must be unique")
        self.address_factory = address_factory
        self._issued = {client.client_id: 0 for client in clients}
        self._next_query_id = 0

    @property
    def total_queries(self) -> int:
        """Queries the fleet issues over a full run."""
        return sum(client.queries for client in self.clients.values())

    def start(self, engine: ServiceEngine) -> None:
        self._issued = {client_id: 0 for client_id in self.clients}
        self._next_query_id = 0
        for client_id in sorted(self.clients):
            client = self.clients[client_id]
            if client.queries > 0:
                engine.schedule_think(client_id, client.start_time)

    def next_request(self, client_id: int, now: float) -> QueryRequest | None:
        client = self.clients[client_id]
        index = self._issued[client_id]
        if index >= client.queries:
            return None
        self._issued[client_id] = index + 1
        query_id = self._next_query_id
        self._next_query_id += 1
        deadline = (
            None
            if client.deadline_layers is None
            else now + client.deadline_layers
        )
        amplitudes = self.address_factory(client, index)
        if isinstance(amplitudes, MutableMapping):
            # A factory may hand out a dict it later mutates; read-only
            # mappings (the generators' lazily drawn ones) pass as they are.
            amplitudes = dict(amplitudes)
        return QueryRequest(
            query_id=query_id,
            address_amplitudes=amplitudes,
            request_time=now,
            qpu=client_id,
            deadline=deadline,
            min_fidelity=client.min_fidelity,
        )

    def on_completion(self, engine: ServiceEngine, record: ServedQuery) -> None:
        self._think_after(engine, record.tenant, record.finish_layer)

    def on_rejection(self, engine: ServiceEngine, record: RejectedQuery) -> None:
        # A rejected or shed request still consumed one of the client's
        # queries (it is accounted in the report's rejected records); the
        # client learns of the failure at rejection time and moves on to
        # its next query after thinking.
        self._think_after(engine, record.tenant, record.time)

    def _think_after(self, engine: ServiceEngine, client_id: int, finished_at: float) -> None:
        client = self.clients.get(client_id)
        if client is None:
            return
        if self._issued[client.client_id] < client.queries:
            engine.schedule_think(
                client.client_id, finished_at + client.think_layers
            )
