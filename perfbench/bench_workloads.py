"""The four benchmark workloads, built only from the public ``repro`` APIs.

Each workload object is constructed from the benchmark seed and offers:

* ``setup()`` — validate the scenario spec(s) and build the fleet: the
  work a user does before the first request is served (``setup_s``).
* ``rep(tracer)`` — one run at the stated input size; returns a
  :class:`RepResult`.  ``tracer`` is ``None`` for measured runs; a traced
  run passes a :class:`bench_trace.Tracer` so the benchmark can open spans
  around the calls it makes itself.
* ``check(result)`` — the output checks; returns ``(unit, message)``
  pairs, the unit being the failed request, point or artifact (``"*"``
  for the whole run).

Every trace and memory image is derived from the seed; ``paper_artifact``
regenerates the paper's tables and figures and takes no seed.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from dataclasses import dataclass, field
from typing import Any

from repro.backends.protocol import ideal_output
from repro.core.query import QueryRequest
from repro.engine import TraceSource
from repro.scenarios.spec import (
    FleetSpec,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.sweep import SweepSpec, run_sweep
from repro.workloads import iter_exponential_times, shard_aligned_superposition

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: int) -> float:
    """The highest candidate percentile with at least ten samples beyond it."""
    for q in TAIL_CANDIDATES:
        if samples * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


@dataclass
class RepResult:
    """What one run produced.

    ``sim`` holds the simulated (virtual-time) figures, which are a pure
    function of the seed; ``digests`` pins the full result content where
    the workload has one (sweep rows).  ``attempted`` counts checked units
    (requests, points or artifacts).
    """

    sim: dict[str, float]
    served: int
    offered: int
    rejected_or_shed: int
    attempted: int
    payload: Any = None
    digests: tuple[str, ...] = ()
    extra: dict[str, float] = field(default_factory=dict)


def _span(tracer, name: str, fn, *args, **kwargs):
    """Call ``fn`` inside a span when tracing, plainly otherwise."""
    if tracer is None:
        return fn(*args, **kwargs)
    tracer.begin(name)
    try:
        return fn(*args, **kwargs)
    finally:
        tracer.end()


# ----------------------------------------------------------- open_loop_stream
class OpenLoopStream:
    """Poisson open loop, timing-only, streamed with no record retention."""

    name = "open_loop_stream"
    REQUESTS = 30_000
    CAPACITY = 8
    MEAN_INTERARRIVAL = 14.0
    TENANTS = 4
    TELEMETRY_INTERVAL = 5_000.0

    def __init__(self, seed: int, requests: int | None = None) -> None:
        self.seed = seed
        self.requests = requests or self.REQUESTS
        self.spec = ScenarioSpec(
            fleet=FleetSpec(
                capacity=self.CAPACITY,
                shards=("Fat-Tree", "Fat-Tree"),
                functional=False,
                data="random",
                data_seed=seed,
            ),
            workload=WorkloadSpec(
                kind="poisson",
                num_queries=self.requests,
                mean_interarrival=self.MEAN_INTERARRIVAL,
                addresses_per_query=1,
                num_tenants=self.TENANTS,
                seed=seed,
                delivery="streaming",
            ),
            run=RunSpec(
                retention="none",
                telemetry_interval=self.TELEMETRY_INTERVAL,
                workers=0,
                sanitize=False,
                profile=False,
            ),
            name=self.name,
        )

    def setup(self) -> Any:
        return self.spec.build()

    def first_requests(self, count: int) -> list[QueryRequest]:
        """The head of this seed's trace (for seed-discipline checks)."""
        spec = dataclasses.replace(
            self.spec.workload, num_queries=count, delivery="trace"
        )
        return list(spec.build(self.spec.fleet).requests)

    def rep(self, tracer=None) -> RepResult:
        built = self.spec.build()
        report = built.run()
        stats = report.stats
        return RepResult(
            sim={
                "latency_p50_layers": stats.p50_latency_layers,
                "latency_tail_layers": stats.p99_latency_layers,
                "bandwidth_qps": stats.bandwidth_queries_per_sec,
                "makespan_layers": stats.makespan_layers,
            },
            served=stats.total_queries,
            offered=stats.offered_queries,
            rejected_or_shed=stats.rejected_queries + stats.shed_queries,
            attempted=stats.offered_queries,
            extra={"telemetry_intervals": float(len(report.telemetry))},
        )

    def check(self, result: RepResult) -> list[tuple[str, str]]:
        failures = []
        if result.offered != self.requests:
            failures.append(
                ("*", f"offered {result.offered} != generated {self.requests}")
            )
        if result.served != result.offered:
            failures.append(
                ("*", f"served {result.served} != offered {result.offered}")
            )
        return failures


# ------------------------------------------------------- functional_pipelined
class FunctionalPipelined:
    """Gate-level serving at saturation: full Fat-Tree pipeline windows."""

    name = "functional_pipelined"
    QUERIES = 48
    CAPACITY = 32
    MEAN_INTERARRIVAL = 2.0
    TENANTS = 4
    ADDRESSES = 2
    SHARDS = ("Fat-Tree", "BB")

    def __init__(self, seed: int, queries: int | None = None) -> None:
        self.seed = seed
        self.queries = queries or self.QUERIES
        self.spec = ScenarioSpec(
            fleet=FleetSpec(
                capacity=self.CAPACITY,
                shards=self.SHARDS,
                functional=True,
                data="random",
                data_seed=seed,
            ),
            # The trace's parameters; iter_trace draws it (below).
            workload=WorkloadSpec(
                kind="poisson",
                num_queries=self.queries,
                mean_interarrival=self.MEAN_INTERARRIVAL,
                addresses_per_query=self.ADDRESSES,
                num_tenants=self.TENANTS,
                seed=seed,
            ),
            run=RunSpec(
                retention="full", workers=0, sanitize=False, profile=False
            ),
            name=self.name,
        )
        self.memory = self.spec.fleet.memory()

    def iter_trace(self):
        """Poisson arrivals with shards assigned round-robin.

        The parameters are the spec's workload section.  Round-robin
        placement, which the spec's generators do not offer, gives both
        shards the same query count on every seed, so the work per run does
        not swing with a binomial shard split; addresses and amplitudes
        stay seeded and random.
        """
        fleet, spec = self.spec.fleet, self.spec.workload
        shards = fleet.num_shards
        times = iter_exponential_times(
            spec.num_queries, spec.mean_interarrival, spec.seed
        )
        for query_id, arrival in enumerate(times):
            yield QueryRequest(
                query_id=query_id,
                address_amplitudes=shard_aligned_superposition(
                    fleet.capacity, shards, query_id % shards,
                    spec.addresses_per_query,
                    seed=spec.seed * 1_000_003 + query_id,
                ),
                request_time=float(arrival),
                qpu=query_id % spec.num_tenants,
            )

    def setup(self) -> Any:
        return self.spec.build()

    def first_requests(self, count: int) -> list[QueryRequest]:
        return list(self.iter_trace())[:count]

    def rep(self, tracer=None) -> RepResult:
        built = self.spec.build()
        trace = self.iter_trace()
        if tracer is not None:
            trace = tracer.wrap_iter(trace)
        requests = list(trace)
        report = built.engine.run(TraceSource(requests), clops=built.clops)
        stats = report.stats
        latencies = [r.finish_layer - r.request_time for r in report.served]
        tail = tail_percentile(len(latencies))
        return RepResult(
            sim={
                "latency_p50_layers": percentile(latencies, 50.0),
                "latency_tail_layers": percentile(latencies, tail),
                "bandwidth_qps": stats.bandwidth_queries_per_sec,
                "makespan_layers": stats.makespan_layers,
            },
            served=stats.total_queries,
            offered=stats.offered_queries,
            rejected_or_shed=stats.rejected_queries + stats.shed_queries,
            attempted=len(requests),
            payload=(requests, report),
            extra={"tail_percentile": tail},
        )

    def check(self, result: RepResult) -> list[tuple[str, str]]:
        requests, report = result.payload
        failures = []
        if result.served != len(requests):
            failures.append(("*", f"served {result.served} of {len(requests)}"))
        by_id = {r.query_id: r for r in report.served}
        for request in requests:
            record = by_id.get(request.query_id)
            output = report.outputs.get(request.query_id)
            if record is None or output is None:
                failures.append((f"query {request.query_id}", "no output"))
                continue
            ideal = ideal_output(self.memory, request)
            # A pipelined slot's register is one factor of a product state,
            # so its output is fixed only up to a global phase: align that
            # phase, then compare amplitude by amplitude.
            overlap = sum(
                amp.conjugate() * output.get(key, 0.0)
                for key, amp in ideal.items()
            )
            phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
            error = max(
                abs(ideal.get(key, 0.0) * phase - output.get(key, 0.0))
                for key in set(ideal) | set(output)
            )
            if error > 1e-9:
                failures.append((
                    f"query {request.query_id}",
                    f"output differs from the classical lookup by {error:.3g}",
                ))
            if record.fidelity is None or record.fidelity < 1.0 - 1e-9:
                failures.append(
                    (f"query {request.query_id}", f"fidelity {record.fidelity}")
                )
        return failures


# ------------------------------------------------------------------ slo_sweep
class SloSweep:
    """An SLO design-space campaign on the persistent fork pool."""

    name = "slo_sweep"
    QUERIES = 200
    CAPACITY = 64
    INTERARRIVALS = (40.0, 16.0, 8.0)
    #: Eleven memory images x (2 + 4 shard slices) = 66 distinct executors,
    #: more than the schedule-cache registry's 64-entry LRU holds.
    DATA_SEEDS = 11
    MAX_QUEUE_DEPTH = 8
    DEADLINE_LAYERS = 400.0
    TENANTS = 4
    #: One pool worker: the points still cross the fork-pool boundary, but
    #: the run time does not hang on how fleet-affinity routing spreads a
    #: seed's fleets over several workers, nor on whether a second CPU is
    #: free (on 2 CPUs, 2 workers took 1.9-2.3 s per run depending on the
    #: seed, against 4.3-4.6 s for 1 worker on every seed).
    POOL_SIZE = 1

    def __init__(
        self, seed: int, queries: int | None = None,
        data_seeds: int | None = None,
    ) -> None:
        self.seed = seed
        self.queries = queries or self.QUERIES
        count = data_seeds or self.DATA_SEEDS
        base = ScenarioSpec(
            fleet=FleetSpec(
                capacity=self.CAPACITY,
                shards=("Fat-Tree", "BB"),
                functional=False,
                data="random",
                data_seed=seed * count,
            ),
            workload=WorkloadSpec(
                kind="poisson",
                num_queries=self.queries,
                mean_interarrival=self.INTERARRIVALS[0],
                num_tenants=self.TENANTS,
                seed=seed,
                deadline_layers=self.DEADLINE_LAYERS,
            ),
            policy=PolicySpec(
                max_queue_depth=self.MAX_QUEUE_DEPTH, shed_expired=True
            ),
            run=RunSpec(
                retention="full", workers=0, sanitize=False, profile=False
            ),
            name=self.name,
        )
        self.sweep = SweepSpec(
            base=base,
            axes=(
                ("policy.admission", ("fifo", "edf")),
                ("fleet.qec_distance", (1, 3)),
                ("fleet.shard_count", (2, 4)),
                ("workload.mean_interarrival", self.INTERARRIVALS),
                (
                    "fleet.data_seed",
                    tuple(seed * count + j for j in range(count)),
                ),
            ),
            name=self.name,
        )

    def setup(self) -> Any:
        points = self.sweep.expand()
        return points[0].spec.build()

    def first_requests(self, count: int) -> list[QueryRequest]:
        base = self.sweep.base
        spec = dataclasses.replace(base.workload, num_queries=count)
        return list(spec.build(base.fleet).requests)

    def rep(self, tracer=None, pool_size: int = POOL_SIZE) -> RepResult:
        result = _span(
            tracer, "sweep.run", run_sweep, self.sweep, pool_size=pool_size
        )
        rows = result.rows
        ok = [row for row in rows if row["status"] == "ok"]
        metrics = [row["metrics"] for row in ok]
        # Latency and bandwidth are taken where the fleet, not the arrival
        # process, sets them: the overload end, whose points all replay one
        # arrival trace per seed.  (At the under-load end the median point
        # serves at that trace's own arrival rate, which moves about 10%
        # from seed to seed.)
        overload = [
            row["metrics"] for row in ok
            if row["coords"]["workload.mean_interarrival"]
            == self.INTERARRIVALS[-1]
        ]

        def median_of(key: str) -> float:
            if not overload:
                return 0.0
            return statistics.median(m[key] for m in overload)

        served = sum(m["total_queries"] for m in metrics)
        offered = sum(m["offered_queries"] for m in metrics)
        dropped = sum(m["rejected_queries"] + m["shed_queries"] for m in metrics)
        misses = sum(m["deadline_misses"] for m in metrics)
        return RepResult(
            sim={
                "latency_p50_layers": median_of("p50_latency_layers"),
                "latency_tail_layers": median_of("p95_latency_layers"),
                "bandwidth_qps": median_of("bandwidth_queries_per_sec"),
                "deadline_miss_rate": misses / served if served else 0.0,
            },
            served=served,
            offered=offered,
            rejected_or_shed=dropped,
            attempted=len(rows),
            payload=result,
            digests=tuple(str(row["report_digest"]) for row in rows),
            extra={
                "points": float(len(rows)),
                "executions": float(result.executions),
                "pool_size": float(result.pool_size),
                "overload_points": float(len(overload)),
                "tail_percentile": 95.0,
            },
        )

    def check(self, result: RepResult) -> list[tuple[str, str]]:
        failures = []
        for row in result.payload.rows:
            if row["status"] != "ok":
                failures.append((f"point {row['name']}", str(row["error"])))
                continue
            m = row["metrics"]
            accounted = (
                m["total_queries"] + m["rejected_queries"] + m["shed_queries"]
            )
            if accounted != m["offered_queries"]:
                failures.append((
                    f"point {row['name']}",
                    f"offered {m['offered_queries']} != served + rejected + "
                    f"shed {accounted}",
                ))
            if m["offered_queries"] != self.queries:
                failures.append((
                    f"point {row['name']}",
                    f"offered {m['offered_queries']} of {self.queries} "
                    f"generated",
                ))
        return failures


# ------------------------------------------------------------- paper_artifact
def _check_tables(out: dict[str, Any]) -> list[str]:
    """The paper closed forms asserted by benchmarks/bench_table*.py."""
    failures = []

    def expect(condition: bool, what: str) -> None:
        if not condition:
            failures.append(what)

    t1 = {r["architecture"]: r for r in out["table1"]}
    expect(t1["Fat-Tree"]["qubits"] == 16 * 1024, "table1 Fat-Tree qubits")
    expect(t1["BB"]["qubits"] == 8 * 1024, "table1 BB qubits")
    expect(abs(t1["Fat-Tree"]["single_query_latency"] - 82.375) < 1e-9,
           "table1 Fat-Tree single-query latency")
    expect(abs(t1["Fat-Tree"]["parallel_query_latency"] - 156.625) < 1e-9,
           "table1 Fat-Tree parallel latency")
    expect(abs(t1["Fat-Tree"]["amortized_query_latency"] - 8.25) < 1e-9,
           "table1 Fat-Tree amortized latency")
    expect(abs(t1["BB"]["parallel_query_latency"] - 801.25) < 1e-9,
           "table1 BB parallel latency")

    t2 = {r["architecture"]: r for r in out["table2"]}
    expect(abs(t2["Fat-Tree"]["bandwidth_qubits_per_sec"] - 1.21e5) < 2e3,
           "table2 Fat-Tree bandwidth")
    expect(abs(t2["Fat-Tree"]["spacetime_volume_per_query"] - 132 * 1024)
           < 1e-6, "table2 Fat-Tree space-time volume")
    expect(abs(t2["Fat-Tree"]["memory_swap_budget_us"] - 8.25) < 1e-9,
           "table2 memory-swap budget")
    expect(t2["BB"]["bandwidth_qubits_per_sec"]
           < t2["Fat-Tree"]["bandwidth_qubits_per_sec"],
           "table2 BB below Fat-Tree bandwidth")
    expect(t2["D-Fat-Tree"]["bandwidth_qubits_per_sec"] > 1e6,
           "table2 D-Fat-Tree bandwidth")

    t3 = {r["capacity"]: r for r in out["table3"]}
    for capacity, value in ((8, 0.045), (16, 0.08), (32, 0.125), (64, 0.18)):
        expect(abs(t3[capacity]["infidelity_eps0_0.001"] - value) < 1e-12,
               f"table3 infidelity at N={capacity}")
    expect(abs(t3[64]["infidelity_eps0_1e-05"] - 0.0018) < 1e-12,
           "table3 infidelity at eps0=1e-5")

    t4 = out["table4"]
    expect(t4["Fat-Tree"]["copies"] == 4 and t4["2 BB"]["copies"] == 2,
           "table4 copies")
    expect(abs(t4["Fat-Tree"]["fidelity_before"] - 0.84) < 1e-9,
           "table4 Fat-Tree fidelity before")
    expect(abs(t4["2 BB"]["fidelity_before"] - 0.872) < 1e-9,
           "table4 2 BB fidelity before")
    expect(t4["Fat-Tree"]["fidelity_after"] > 0.999,
           "table4 Fat-Tree fidelity after")
    expect(0.98 < t4["2 BB"]["fidelity_after"] < 0.99,
           "table4 2 BB fidelity after")

    noisy, encoded = out["table5"]
    expect(noisy["physical_qubits"] * 5 == encoded["physical_qubits"],
           "table5 physical qubits")
    expect(noisy["logical_query_parallelism"] == 2
           and encoded["logical_query_parallelism"] == 1,
           "table5 logical parallelism")
    expect(noisy["logical_query_latency"]
           == encoded["logical_query_latency"] + 5,
           "table5 logical latency")
    return failures


def _check_figures(out: dict[str, Any]) -> list[str]:
    """The paper-value predicates asserted by benchmarks/bench_fig*.py."""
    from repro.fidelity.qec import max_depth_below_infidelity
    from repro.scheduling.utilization import fig7_total_time

    failures = []

    def expect(condition: bool, what: str) -> None:
        if not condition:
            failures.append(what)

    fig2 = out["fig2"]
    expect(fig2["query_complete"] == 25 and fig2["data_retrieval"] == 13,
           "fig2 BB milestones")

    fig6 = out["fig6"]
    expect(fig6["per_query_raw_layers"] == 29, "fig6 per-query layers")
    expect(fig6["finish_layers"] == [29, 39, 49], "fig6 finish layers")
    expect(fig6["bb_single_query_layers"] == 25, "fig6 BB single query")

    fig7 = out["fig7"]
    expect(fig7["queries_served"] == 9, "fig7 queries served")
    expect(0.0 < fig7["average_utilization"] <= 1.0, "fig7 utilization")
    expect(fig7["total_time"] < 2 * fig7_total_time(3, 20.0),
           "fig7 total time vs closed form")

    fig8 = out["fig8"]
    fat_tree, bb = fig8["Fat-Tree"], fig8["BB"]
    expect(max(fat_tree) - min(fat_tree) < 1e-6, "fig8 Fat-Tree flat")
    expect(abs(fat_tree[0] - 1.2121e5) < 2e2, "fig8 Fat-Tree bandwidth")
    expect(bb == sorted(bb, reverse=True), "fig8 BB decays")
    expect(all(ft > b for ft, b in zip(fat_tree, bb)), "fig8 Fat-Tree > BB")
    expect(all(ft > v for ft, v in zip(fat_tree, fig8["Virtual"])),
           "fig8 Fat-Tree > Virtual")
    expect(fig8["D-Fat-Tree"] == sorted(fig8["D-Fat-Tree"]),
           "fig8 D-Fat-Tree grows")

    for algorithm, row in out["fig9"].items():
        expect(row["Fat-Tree"] < row["BB"], f"fig9 {algorithm} vs BB")
        expect(row["Fat-Tree"] < row["Virtual"], f"fig9 {algorithm} vs Virtual")
        expect(4 < row["BB"] / row["Fat-Tree"] <= 11,
               f"fig9 {algorithm} BB/Fat-Tree ratio")
        expect(row["Fat-Tree"] < 1.2 * row["D-BB"], f"fig9 {algorithm} vs D-BB")

    fig10 = out["fig10"]
    bb_depth = fig10["BB"]["overall_depth"]
    ft_depth = fig10["Fat-Tree"]["overall_depth"]
    ratios = list(fig10["Fat-Tree"]["processing_ratios"])
    half = ratios.index(0.5)
    last = len(fig10["Fat-Tree"]["parallel_counts"]) - 1
    expect(bb_depth[half][last] > 3 * ft_depth[half][last],
           "fig10 BB bandwidth-bound at d/t1=0.5")
    expect(abs(bb_depth[0][0] - ft_depth[0][0]) / bb_depth[0][0] < 0.15,
           "fig10 single algorithm parity")
    ft_util = fig10["Fat-Tree"]["utilization"]
    expect(ft_util[half][0] < ft_util[half][last],
           "fig10 Fat-Tree utilization grows")

    fig11 = out["fig11"]
    for distance in (1, 3, 5):
        gc = fig11[f"GC d={distance}"]
        ft = fig11[f"Fat-Tree d={distance}"]
        bbq = fig11[f"BB d={distance}"]
        expect(gc[-1] >= ft[-1] and gc[-1] >= bbq[-1],
               f"fig11 generic circuit saturates at d={distance}")
        expect(all(a / b < 1.3 for a, b in zip(ft, bbq) if 0 < b < 1),
               f"fig11 Fat-Tree within 1.3x of BB at d={distance}")
    expect(all(a >= b for a, b in zip(fig11["Fat-Tree d=3"],
                                      fig11["Fat-Tree d=5"])),
           "fig11 distance lowers the curve")
    expect(max_depth_below_infidelity("Fat-Tree", 3, 5e-3)
           > max_depth_below_infidelity("GC", 3, 5e-3),
           "fig11 QRAM depth budget exceeds generic circuit")
    return failures


class PaperArtifact:
    """Tables 1-5 and Figs. 2, 6-11 at their default sizes (no seed)."""

    name = "paper_artifact"
    CLOPS = 1.0e6
    #: Artifact name -> its ``repro.analysis`` generator, in run order.
    ARTIFACTS = (
        ("table1", "generate_table1"),
        ("table2", "generate_table2"),
        ("table3", "generate_table3"),
        ("table4", "generate_table4"),
        ("table5", "generate_table5"),
        ("fig2", "generate_fig2_milestones"),
        ("fig6", "generate_fig6_pipeline"),
        ("fig7", "generate_fig7_schedule"),
        ("fig8", "generate_fig8_bandwidth"),
        ("fig9", "generate_fig9_algorithm_depths"),
        ("fig10", "generate_fig10_synthetic"),
        ("fig11", "generate_fig11_qec"),
    )

    def __init__(self, seed: int = 0) -> None:
        del seed  # the paper's artifacts are deterministic and seedless
        from repro import analysis

        self.generators = tuple(
            (artifact, getattr(analysis, generator))
            for artifact, generator in self.ARTIFACTS
        )

    def setup(self) -> Any:
        return self.generators

    def rep(self, tracer=None) -> RepResult:
        out: dict[str, Any] = {}
        raised: list[str] = []
        for artifact, generate in self.generators:
            try:
                out[artifact] = _span(tracer, f"analysis.{artifact}", generate)
            except Exception as exc:  # noqa: BLE001 - a failed artifact is counted
                raised.append((artifact, f"raised {type(exc).__name__}: {exc}"))
        # Closed-loop latency samples: the overall algorithm depth of every
        # Fig. 10 cell; each cell serves parallel_count x rounds queries.
        depths: list[float] = []
        queries = 0
        if "fig10" in out:
            for grid in out["fig10"].values():
                counts = list(grid["parallel_counts"])
                for row in grid["overall_depth"]:
                    depths.extend(float(v) for v in row)
                    queries += sum(int(c) * 10 for c in counts)
        if "fig7" in out:
            queries += int(out["fig7"]["queries_served"])
            depths_total = sum(depths) + float(out["fig7"]["total_time"])
        else:
            depths_total = sum(depths)
        tail = tail_percentile(len(depths))
        return RepResult(
            sim={
                "latency_p50_layers": percentile(depths, 50.0) if depths else 0.0,
                "latency_tail_layers": (
                    percentile(depths, tail) if depths else 0.0
                ),
                "bandwidth_qps": (
                    queries / (depths_total / self.CLOPS) if depths_total else 0.0
                ),
            },
            served=queries,
            offered=queries,
            rejected_or_shed=0,
            attempted=len(self.generators),
            payload=(out, raised),
            extra={"tail_percentile": tail},
        )

    def check(self, result: RepResult) -> list[tuple[str, str]]:
        out, raised = result.payload
        if raised:
            return list(raised)
        failures = []
        for label, checker in (("tables", _check_tables), ("figures", _check_figures)):
            try:
                failures.extend(
                    (what.split()[0], what) for what in checker(out)
                )
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                failures.append((label, f"malformed output ({exc!r})"))
        return failures


WORKLOADS = {
    cls.name: cls
    for cls in (OpenLoopStream, FunctionalPipelined, SloSweep, PaperArtifact)
}
