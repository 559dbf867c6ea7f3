"""Span tracing around the calls into each ``repro`` layer.

A traced run installs wrappers on the public entry points of every layer
(:func:`install`), runs one workload repetition under a root span, and
removes the wrappers again, so measured (untraced) runs execute the
unmodified program.  Spans are kept in memory — name, start, end, parent
span and the run/point/window context — and written out when the
benchmark ends.

A span's self time is its duration minus the time covered by its child
spans (children of one span never overlap: the traced run is a single
thread in a single process), so the self times of all spans add up to the
root span's duration, and the root's own self time is the unattributed
remainder.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from collections.abc import Iterator
from typing import Any

#: The layers spans are attributed to: a span named ``layer.call`` belongs
#: to ``layer`` (``engine.pool.run`` belongs to ``engine``).
LAYERS = (
    "workloads",
    "scenarios",
    "service",
    "schedule_cache",
    "engine",
    "backends",
    "core",
    "bucket_brigade",
    "sim",
    "metrics",
    "sweep",
    "scheduling",
    "analysis",
)

ROOT = "bench.rep"

#: Architecture label (``backend.name``) -> metric key.
ARCH_KEYS = {"Fat-Tree": "fat_tree", "BB": "bb"}


def arch_key(name: str) -> str:
    base, _, distance = name.partition("@")
    key = ARCH_KEYS.get(base, base.lower().replace("-", "_"))
    return f"{key}_{distance}" if distance else key


class Tracer:
    """In-memory span recorder with running per-span child totals."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        # (span id, parent id, name, start, end, self seconds, context)
        self.spans: list[tuple[int, int, str, float, float, float, str]] = []
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.peaks: dict[str, float] = defaultdict(float)
        # Open spans: [id, name, start, child seconds, context].
        self._stack: list[list[Any]] = []
        self._next_id = 1

    # ---------------------------------------------------------------- spans
    def begin(self, name: str, context: str | None = None) -> None:
        if context is None:
            context = self._stack[-1][4] if self._stack else ""
        self._stack.append([self._next_id, name, self.clock(), 0.0, context])
        self._next_id += 1

    def end(self) -> float:
        end = self.clock()
        span_id, name, start, children, context = self._stack.pop()
        duration = end - start
        parent = 0
        if self._stack:
            parent_frame = self._stack[-1]
            parent_frame[3] += duration
            parent = parent_frame[0]
        self.spans.append(
            (span_id, parent, name, start, end, duration - children, context)
        )
        return duration

    def wrap(self, name: str, fn, context_of=None):
        """``fn`` wrapped in a span (``context_of(*args)`` names its context)."""
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(name, None if context_of is None else context_of(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        """``fn`` wrapped in a call counter (no span)."""
        counts = self.counts

        def counted_call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted_call.__wrapped__ = fn
        return counted_call

    def wrap_iter(self, iterator) -> Iterator[Any]:
        """A request iterator whose every ``next`` is a ``workloads`` span."""
        tracer = self
        inner = iter(iterator)

        class TracedIterator:
            def __iter__(self):
                return self

            def __next__(self):
                tracer.begin("workloads.next")
                try:
                    item = next(inner)
                finally:
                    tracer.end()
                tracer.counts["workloads.requests"] += 1
                return item

        return TracedIterator()

    # -------------------------------------------------------------- summary
    def root_duration(self) -> float:
        return sum(end - start for _, parent, name, start, end, _, _ in self.spans
                   if parent == 0)

    def layer_self(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for _, _, name, _, _, self_s, _ in self.spans:
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += self_s
        return totals

    def unattributed(self) -> float:
        return sum(s[5] for s in self.spans if s[2] == ROOT)

    def total(self, *names: str) -> float:
        """Summed duration of the outermost spans among ``names``."""
        wanted = set(names)
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for span in self.spans:
            if span[2] not in wanted:
                continue
            parent = by_id.get(span[1])
            nested = False
            while parent is not None:
                if parent[2] in wanted:
                    nested = True
                    break
                parent = by_id.get(parent[1])
            if not nested:
                total += span[4] - span[3]
        return total

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                ["id", "parent", "name", "start_s", "end_s", "self_s", "context"]
            ) + "\n")
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Patches:
    """Wrap each layer's public entry points; returns the undo handle."""
    import repro.engine.core as engine_core
    import repro.sweep.engine as sweep_engine
    import repro.workloads.generators as generators
    from repro.backends.bucket_brigade import BBBackend
    from repro.backends.encoded import EncodedBackend
    from repro.backends.fat_tree import FatTreeBackend
    from repro.bucket_brigade.executor import BBExecutor
    from repro.core.executor import FatTreeExecutor
    from repro.engine.core import ServiceEngine
    from repro.engine.events import EventHeap
    from repro.metrics.sinks import ListSink, NullSink, SamplingSink
    from repro.metrics.streaming import StreamingServiceAggregator
    from repro.scenarios.spec import ScenarioSpec
    from repro.scheduling.contention import SharedQRAMSimulation
    from repro.service import QRAMService
    from repro.sim.sparse import SparseState
    from repro.sweep.spec import SweepSpec

    patches = Patches()
    wrap, counted = tracer.wrap, tracer.counted

    # workloads: every request the generator yields.
    original_trace = generators.iter_poisson_trace

    def traced_trace(*args, **kwargs):
        return tracer.wrap_iter(original_trace(*args, **kwargs))

    patches.set(generators, "iter_poisson_trace", traced_trace)

    # scenarios and service: validation, expansion and fleet build.
    patches.set(ScenarioSpec, "build",
                wrap("scenarios.build", ScenarioSpec.build))
    patches.set(ScenarioSpec, "with_value",
                wrap("scenarios.with_value", ScenarioSpec.with_value))
    patches.set(SweepSpec, "expand",
                wrap("scenarios.expand", SweepSpec.expand))
    patches.set(QRAMService, "__init__",
                wrap("service.init", QRAMService.__init__))

    # engine: the event loop and its heap (the traced run is inline, so
    # the fork pool is measured separately by install_pool).
    patches.set(ServiceEngine, "run", wrap("engine.run", ServiceEngine.run))
    patches.set(EventHeap, "push", counted("engine.heap_pushes", EventHeap.push))
    patches.set(EventHeap, "pop", counted("engine.heap_pops", EventHeap.pop))

    # backends: one span per pipeline window, labelled by architecture.
    for cls in (FatTreeBackend, BBBackend, EncodedBackend):
        original_window = cls.__dict__["run_window"]

        def traced_window(backend, requests, functional=True,
                          _original=original_window):
            key = arch_key(backend.name)
            tracer.counts["backends.window_id"] += 1
            tracer.begin(
                "backends.run_window",
                f"window {tracer.counts['backends.window_id']}",
            )
            try:
                return _original(backend, requests, functional=functional)
            finally:
                duration = tracer.end()
                tracer.samples[f"backends.{key}.window_s"].append(duration)
                tracer.samples[f"backends.{key}.batch"].append(
                    float(len(requests))
                )

        patches.set(cls, "run_window", traced_window)

    # core / bucket_brigade / sim: gate-level execution.
    patches.set(FatTreeExecutor, "run_pipelined_queries",
                wrap("core.run_pipelined_queries",
                     FatTreeExecutor.run_pipelined_queries))
    patches.set(BBExecutor, "run_query",
                wrap("bucket_brigade.run_query", BBExecutor.run_query))
    original_gate = SparseState.apply_gate

    def traced_gate(state, gate, qubits, theta=None):
        tracer.begin("sim.apply_gate")
        try:
            return original_gate(state, gate, qubits, theta)
        finally:
            tracer.end()
            terms = float(state.num_terms)
            if terms > tracer.peaks["sim.peak_terms"]:
                tracer.peaks["sim.peak_terms"] = terms

    patches.set(SparseState, "apply_gate", traced_gate)

    # metrics: the streaming aggregator, the batch summary and the sinks.
    for method in ("observe_served", "observe_window", "observe_rejected"):
        patches.set(
            StreamingServiceAggregator, method,
            wrap("metrics.observe", StreamingServiceAggregator.__dict__[method]),
        )
    patches.set(StreamingServiceAggregator, "to_stats",
                wrap("metrics.to_stats", StreamingServiceAggregator.to_stats))
    patches.set(engine_core, "summarize_service",
                wrap("metrics.summarize", engine_core.summarize_service))
    for cls in (ListSink, NullSink, SamplingSink):
        patches.set(cls, "append",
                    counted("metrics.sink_appends", cls.__dict__["append"]))

    # sweep: one span per executed point, and the row digests.
    patches.set(sweep_engine, "_execute",
                wrap("sweep.point", sweep_engine._execute,
                     context_of=lambda spec, *rest: f"point {spec.name}"))
    patches.set(sweep_engine, "report_digest",
                wrap("sweep.digest", sweep_engine.report_digest))

    # scheduling: the contention simulator behind Figs. 7, 9 and 10.
    original_sim_run = SharedQRAMSimulation.run

    def traced_sim_run(simulation, workloads):
        report = original_sim_run(simulation, workloads)
        tracer.counts["scheduling.sim_runs"] += 1
        tracer.counts["scheduling.queries"] += report.total_queries
        return report

    patches.set(SharedQRAMSimulation, "run",
                wrap("scheduling.run", traced_sim_run))
    return patches


def install_pool(tracer: Tracer) -> Patches:
    """Wrap only the fork pool's parent side (workers run unmodified)."""
    from repro.engine.pool import ForkWorkerPool

    patches = Patches()
    original_run = ForkWorkerPool.run

    def counted_run(pool, tasks):
        tasks = list(tasks)
        tracer.counts["engine.pool.tasks"] += len(tasks)
        tracer.peaks["engine.pool.workers"] = max(
            tracer.peaks["engine.pool.workers"], float(pool.workers)
        )
        return original_run(pool, tasks)

    patches.set(ForkWorkerPool, "run", tracer.wrap("engine.pool.run", counted_run))
    return patches
