"""Differential checks for lazily drawn address superpositions.

Generated traces carry :class:`~repro.workloads.generators.ShardSuperposition`
amplitudes, which draw on first read, and the shard maps route a matching
one by the shard it carries without drawing.  These tests hold that
shortcut to the eager path it replaces:

* (a) every realized superposition, for every open-loop kind x serving
  mode x placement, equals the eager draw keyed by the query's global
  position;
* (b) timing-only reports digest identically to a forced-eager run (each
  request realized and routed through the validating path);
* (c) functional outputs are unchanged;
* (d) a timing-only run draws no amplitudes at all;
* (e) an unrealized request pickles, also through the fork pool, and
  arrives unrealized.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

import repro.workloads.generators as generators
from repro.core.query import QueryRequest
from repro.engine import ServiceEngine, TraceSource
from repro.engine.pool import ForkWorkerPool, fork_available
from repro.metrics.sinks import JsonlSink
from repro.scenarios.spec import (
    DELIVERIES,
    FleetSpec,
    RunSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.service.service import PLACEMENTS
from repro.service.sharding import InterleavedShardMap
from repro.sweep import report_digest
from repro.workloads.generators import (
    ShardSuperposition,
    random_address_superposition,
)

CAPACITY = 16
SEED = 5
ADDRESSES = 2

OPEN_LOOP = {
    "poisson": dict(num_queries=40, mean_interarrival=6.0, num_tenants=2),
    "bursty": dict(
        num_bursts=4, burst_size=6, burst_spacing=30.0, num_tenants=2
    ),
    "diurnal": dict(
        num_queries=40, mean_interarrival=6.0, period=100.0, amplitude=0.5,
        num_tenants=2,
    ),
    "flash-crowd": dict(
        num_queries=30, mean_interarrival=6.0, crowd_time=50.0,
        crowd_size=10, num_tenants=2,
    ),
    "periodic": dict(num_sources=3, rounds=8, period=20.0),
}
CLOSED_LOOP = dict(num_clients=3, queries_per_client=6, think_layers=4.0)

#: How a trace reaches the engine, as ``(delivery, workers)``: each
#: ``WorkloadSpec`` delivery served single-process, plus the factory-backed
#: delivery regenerated per shard by the partitioned path (in-process, so
#: the arrival spy sees every child engine).
SERVINGS = {
    "trace": ("trace", 0),
    "streaming": ("streaming", 0),
    "partitioned": ("streaming", 1),
}
assert {delivery for delivery, _ in SERVINGS.values()} == set(DELIVERIES)


def _eager(capacity, num_shards, shard, num_addresses, seed):
    """The historical eager ``shard_aligned_superposition`` body."""
    local = random_address_superposition(
        capacity // num_shards, num_addresses, seed=seed
    )
    return {a * num_shards + shard: amp for a, amp in local.items()}


def _bits(amplitudes):
    return {
        address: (value.real.hex(), value.imag.hex())
        for address, value in amplitudes.items()
    }


def _spec(
    kind, placement="interleaved", delivery="trace", functional=False,
    sanitize=False, workers=0, **workload,
):
    params = OPEN_LOOP.get(kind, CLOSED_LOOP)
    return ScenarioSpec(
        fleet=FleetSpec(
            capacity=CAPACITY,
            shards=("Fat-Tree", "BB") if placement == "interleaved"
            else ("Fat-Tree", "Fat-Tree"),
            placement=placement,
            functional=functional,
            data="random",
            data_seed=SEED,
        ),
        workload=WorkloadSpec(
            kind=kind,
            addresses_per_query=ADDRESSES,
            seed=SEED,
            delivery=delivery,
            **{**params, **workload},
        ),
        run=RunSpec(retention="full", workers=workers, sanitize=sanitize),
    )


def _run_spying(monkeypatch, built):
    """Run a built scenario, returning its report and every request its
    engine (or an in-process partition's child engine) saw arrive."""
    seen = []
    arrive = ServiceEngine._on_arrival

    def spy(engine, now, request):
        seen.append(request)
        arrive(engine, now, request)

    monkeypatch.setattr(ServiceEngine, "_on_arrival", spy)
    return built.run(), seen


def _forced_eager(monkeypatch, built):
    """Make the fleet's shard map realize every mapping and route the
    plain dict through its validating path, as before the shortcut."""
    shard_map = built.engine.fleet.shard_map
    route = shard_map.route
    monkeypatch.setattr(shard_map, "route", lambda amps: route(dict(amps)))


# ----------------------------------------------------------------------- (a)
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("serving", SERVINGS)
@pytest.mark.parametrize("kind", sorted(OPEN_LOOP))
def test_realized_superpositions_equal_the_eager_draw(
    monkeypatch, kind, serving, placement
):
    delivery, workers = SERVINGS[serving]
    report, seen = _run_spying(
        monkeypatch, _spec(kind, placement, delivery, workers=workers).build()
    )
    assert len(seen) == report.stats.offered_queries > 0
    if workers and placement == "interleaved":
        assert report.parallel.fallback_reason is None
    num_shards = 2 if placement == "interleaved" else 1
    shard_map = InterleavedShardMap(CAPACITY, num_shards)
    for request in seen:
        amplitudes = request.address_amplitudes
        assert isinstance(amplitudes, ShardSuperposition)
        # Timing-only serving left the draw untouched.
        assert amplitudes._values is None
        assert (
            amplitudes.capacity, amplitudes.num_shards,
            amplitudes.num_addresses, amplitudes.seed,
        ) == (CAPACITY, num_shards, ADDRESSES, SEED + request.query_id)
        eager = _eager(
            CAPACITY, num_shards, amplitudes.shard, ADDRESSES,
            SEED + request.query_id,
        )
        assert _bits(amplitudes) == _bits(eager)
        assert amplitudes == eager and eager == amplitudes
        shard, local = shard_map.route(eager)
        assert shard == amplitudes.shard
        assert _bits(amplitudes.local()) == _bits(local)


def test_geometry_mismatch_takes_the_validating_path():
    """A superposition drawn for another shard count is read and
    validated like any plain mapping."""
    shard_map = InterleavedShardMap(CAPACITY, 2)
    spanning = 0
    for seed in range(20):
        drawn = dict(ShardSuperposition(CAPACITY, 1, 0, 3, seed))
        lazy = ShardSuperposition(CAPACITY, 1, 0, 3, seed)
        if len({address % 2 for address in drawn}) > 1:
            spanning += 1
            with pytest.raises(ValueError, match="spans shards"):
                shard_map.route(lazy)
        else:
            assert shard_map.route(lazy) == shard_map.route(drawn)
    assert spanning


# ----------------------------------------------------------------------- (b)
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("kind", sorted(OPEN_LOOP) + ["closed-loop"])
def test_timing_only_digest_matches_forced_eager(monkeypatch, kind, placement):
    lazy = _spec(kind, placement).execute()
    built = _spec(kind, placement).build()
    _forced_eager(monkeypatch, built)
    eager = built.run()
    assert report_digest(lazy) == report_digest(eager)
    assert lazy == eager


def test_replay_digest_matches_forced_eager(monkeypatch, tmp_path):
    path = tmp_path / "recorded.jsonl"
    recorded = _spec("poisson")
    with JsonlSink(str(path)) as sink:
        recorded.execute(sink=sink)
    replay = dataclasses.replace(
        recorded,
        workload=WorkloadSpec(
            kind="replay", path=str(path), addresses_per_query=ADDRESSES,
            seed=SEED,
        ),
    )
    lazy = replay.execute()
    built = replay.build()
    _forced_eager(monkeypatch, built)
    assert report_digest(lazy) == report_digest(built.run())


def test_sanitizer_checks_the_routing_shortcut(monkeypatch):
    """Sanitized runs realize each lazy request and re-route it eagerly,
    and the report is the plain run's."""
    for kind in ("poisson", "closed-loop"):
        plain = _spec(kind).execute()
        report, seen = _run_spying(
            monkeypatch, _spec(kind, sanitize=True).build()
        )
        assert report == plain
        assert all(r.address_amplitudes._values is not None for r in seen)


# ----------------------------------------------------------------------- (c)
@pytest.mark.parametrize("kind", ["poisson", "closed-loop"])
def test_functional_outputs_unchanged(kind):
    spec = _spec(kind, functional=True, **(
        dict(num_queries=12) if kind == "poisson"
        else dict(num_clients=2, queries_per_client=4)
    ))
    lazy = spec.execute()
    built = spec.build()
    if kind == "poisson":
        eager_requests = [
            dataclasses.replace(
                request, address_amplitudes=dict(request.address_amplitudes)
            )
            for request in built.source.requests
        ]
        eager = built.engine.run(TraceSource(eager_requests), clops=built.clops)
    else:
        factory = built.source.address_factory
        built.source.address_factory = lambda client, index: dict(
            factory(client, index)
        )
        eager = built.run()
    assert lazy.outputs and lazy.outputs == eager.outputs
    assert report_digest(lazy) == report_digest(eager)
    assert all(record.fidelity > 1.0 - 1e-9 for record in lazy.served)


# ----------------------------------------------------------------------- (d)
def test_timing_only_run_draws_no_amplitudes(monkeypatch):
    draws = []
    original = generators.random_address_superposition

    def counting(*args, **kwargs):
        draws.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(generators, "random_address_superposition", counting)
    spec = ScenarioSpec(
        fleet=FleetSpec(
            capacity=8, shards=("Fat-Tree", "Fat-Tree"), functional=False
        ),
        workload=WorkloadSpec(
            kind="poisson", num_queries=2_000, mean_interarrival=14.0,
            addresses_per_query=1, num_tenants=4, seed=1,
            delivery="streaming",
        ),
        run=RunSpec(retention="none", workers=0, sanitize=False),
    )
    report = spec.execute()
    assert report.stats.offered_queries == 2_000
    assert draws == []
    # The counter does see draws when something reads the amplitudes.
    _spec("poisson", functional=True, num_queries=4).execute()
    assert len(draws) == 4


# ----------------------------------------------------------------------- (e)
def _draw_state(request):
    amplitudes = request.address_amplitudes
    return amplitudes._values is None, dict(amplitudes), request


def test_unrealized_request_pickles():
    request = QueryRequest(
        7, ShardSuperposition(CAPACITY, 2, 1, ADDRESSES, seed=12)
    )
    clone = pickle.loads(pickle.dumps(request))
    assert clone.address_amplitudes._values is None
    assert clone == request  # realizes both
    assert clone.address_amplitudes._values is not None
    assert pickle.loads(pickle.dumps(clone)) == request


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_unrealized_request_crosses_the_fork_pool():
    requests = [
        QueryRequest(i, ShardSuperposition(CAPACITY, 2, i % 2, ADDRESSES, i))
        for i in range(4)
    ]
    with ForkWorkerPool(_draw_state, workers=2) as pool:
        outcomes = pool.run((i, r, None) for i, r in enumerate(requests))
    for outcome, request in zip(outcomes, requests):
        assert outcome.error is None
        arrived_unrealized, values, returned = outcome.result
        assert arrived_unrealized
        assert values == _eager(
            CAPACITY, 2, request.query_id % 2, ADDRESSES, request.query_id
        )
        assert returned == request
