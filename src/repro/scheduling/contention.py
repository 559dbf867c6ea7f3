"""Discrete-event simulation of algorithms sharing one QRAM.

This is the engine behind Fig. 7 (scheduling diagram / utilization), Fig. 9
(overall depth of parallel algorithms) and Fig. 10 (synthetic-algorithm heat
maps).  Each *algorithm* (running on its own QPU) alternates a QRAM query and
``d`` layers of local processing, for a fixed number of rounds.  The shared
QRAM is described by a :class:`QRAMServiceModel` — its query latency,
admission interval (pipeline interval) and query parallelism — so the same
simulator covers BB, Fat-Tree, Virtual and the distributed baselines.

Event model: a min-heap of ``(time, sequence, kind, algorithm)`` events
holds three kinds.  A ``request`` puts an algorithm's next query in the
waiting heap, ordered by ``(request_time, sequence)``.  A ``complete`` ends a
query and schedules the algorithm's next request after its processing time.
An admission ``wakeup`` re-checks admission at ``next_admission`` (the last
admission plus the admission interval); it is pushed once per
``next_admission`` value, and none is needed for a full QRAM because a slot
frees exactly at an in-flight finish time, whose ``complete`` event admits.
After every event the oldest waiting query is admitted while a slot is free
and the interval has elapsed.  Each query costs one request, one complete
and at most one wake-up, so a run with ``Q`` queries takes ``O(Q log Q)``
time.

All times are in weighted circuit layers (fast layers = 1/8).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class QRAMServiceModel:
    """Timing description of a shared QRAM as seen by the scheduler.

    Attributes:
        name: architecture name (for reports).
        weighted_query_latency: weighted layers from admission to completion of one
            query.
        admission_interval: minimum weighted layers between admissions
            (equals ``weighted_query_latency`` for non-pipelined architectures).
        parallelism: maximum queries in flight.
    """

    name: str
    weighted_query_latency: float
    admission_interval: float
    parallelism: int

    def __post_init__(self) -> None:
        if self.weighted_query_latency <= 0 or self.admission_interval <= 0:
            raise ValueError("latencies must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")

    @classmethod
    def from_architecture(cls, qram) -> "QRAMServiceModel":
        """Build a service model from any registered architecture object."""
        latency = qram.single_query_latency()
        parallelism = qram.query_parallelism
        if parallelism > 1:
            interval = qram.amortized_query_latency()
        else:
            interval = latency
        return cls(
            name=getattr(qram, "name", type(qram).__name__),
            weighted_query_latency=latency,
            admission_interval=interval,
            parallelism=parallelism,
        )


@dataclass
class AlgorithmWorkload:
    """One algorithm alternating queries and processing (Sec. 6.3).

    Attributes:
        algorithm_id: identifier.
        rounds: number of (query, processing) repetitions.
        processing_layers: QPU processing time ``d`` between queries.
        start_time: when the algorithm starts.
    """

    algorithm_id: int
    rounds: int
    processing_layers: float
    start_time: float = 0.0


@dataclass
class SimulationReport:
    """Results of a shared-QRAM contention simulation.

    Attributes:
        model: the QRAM service model simulated.
        overall_depth: completion time of the last algorithm (overall
            algorithm depth, the quantity plotted in Fig. 10 a1/a2).
        per_algorithm_finish: completion time of each algorithm.
        qram_busy_layers: total layers during which at least one query was in
            flight.
        qram_query_layers: sum over queries of their service time (used for
            utilization normalised by parallelism).
        average_utilization: ``qram_query_layers / (parallelism *
            overall_depth)``, capped at 1 (Fig. 10 b1/b2).  The denominator
            is the whole makespan, so it includes the last algorithm's
            trailing processing after its final query.
        total_queries: number of queries served.
        total_queue_delay_layers: total layers queries spent waiting for admission.
        admission_wakeups: admission wake-up events processed (at most one
            per admitted query); a count of simulator work, not of the model.
    """

    model: QRAMServiceModel
    overall_depth: float
    per_algorithm_finish: dict[int, float]
    qram_busy_layers: float
    qram_query_layers: float
    average_utilization: float
    total_queries: int
    total_queue_delay_layers: float
    admission_wakeups: int = 0


class SharedQRAMSimulation:
    """Simulates algorithms contending for a shared QRAM."""

    def __init__(self, model: QRAMServiceModel) -> None:
        self.model = model

    def run(self, workloads: list[AlgorithmWorkload]) -> SimulationReport:
        """Run all workloads to completion and report depth / utilization."""
        if not workloads:
            raise ValueError("at least one workload is required")
        model = self.model
        latency = model.weighted_query_latency
        interval = model.admission_interval
        parallelism = model.parallelism

        # Event queue of (time, sequence, kind, algorithm_id).
        events: list[tuple[float, int, str, int]] = []
        sequence = 0
        remaining = {w.algorithm_id: w.rounds for w in workloads}
        processing = {w.algorithm_id: w.processing_layers for w in workloads}
        finish_times: dict[int, float] = {}
        for w in workloads:
            if w.rounds < 1:
                finish_times[w.algorithm_id] = w.start_time
                continue
            heapq.heappush(events, (w.start_time, sequence, "request", w.algorithm_id))
            sequence += 1

        waiting: list[tuple[float, int, int]] = []  # (request_time, seq, algorithm)
        # Finish times in admission order; one latency for all queries keeps
        # them sorted, so expired ones leave from the front.
        in_flight: deque[float] = deque()
        next_admission = 0.0
        wakeup_time = -math.inf  # latest admission wake-up pushed
        query_intervals: list[tuple[float, float]] = []
        total_queue_delay_layers = 0.0
        wakeups = 0

        while events:
            now, _, kind, algorithm = heapq.heappop(events)
            if kind == "request":
                heapq.heappush(waiting, (now, sequence, algorithm))
                sequence += 1
            elif kind == "complete":
                remaining[algorithm] -= 1
                if remaining[algorithm] > 0:
                    next_request = now + processing[algorithm]
                    heapq.heappush(events, (next_request, sequence, "request", algorithm))
                    sequence += 1
                else:
                    finish_times[algorithm] = now + processing[algorithm]
            else:
                wakeups += 1
            while waiting:
                while in_flight and in_flight[0] <= now:
                    in_flight.popleft()
                if len(in_flight) >= parallelism or now < next_admission:
                    break
                request_time, _, admitted = heapq.heappop(waiting)
                finish = now + latency
                in_flight.append(finish)
                next_admission = now + interval
                query_intervals.append((now, finish))
                total_queue_delay_layers += now - request_time
                heapq.heappush(events, (finish, sequence, "complete", admitted))
                sequence += 1
            # A full QRAM frees a slot at an in-flight finish time, whose
            # complete event (pushed earlier, so popped first) admits; only
            # the admission interval needs its own wake-up.
            if waiting and next_admission > now and next_admission > wakeup_time:
                wakeup_time = next_admission
                heapq.heappush(events, (wakeup_time, sequence, "wakeup", -1))
                sequence += 1

        overall_depth = max(finish_times.values())
        busy = _merge_intervals(query_intervals)
        busy_layers = sum(end - start for start, end in busy)
        query_layers = sum(end - start for start, end in query_intervals)
        makespan = overall_depth if overall_depth > 0 else 1.0
        average_utilization = min(1.0, query_layers / (parallelism * makespan))
        return SimulationReport(
            model=model,
            overall_depth=overall_depth,
            per_algorithm_finish=finish_times,
            qram_busy_layers=busy_layers,
            qram_query_layers=query_layers,
            average_utilization=average_utilization,
            total_queries=len(query_intervals),
            total_queue_delay_layers=total_queue_delay_layers,
            admission_wakeups=wakeups,
        )


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge overlapping (start, end) intervals."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged
