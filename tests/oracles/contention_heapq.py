"""Retry-event contention loop: the reference for ``SharedQRAMSimulation.run``.

This is the original discrete-event loop behind Figs. 7, 9 and 10.  After
every popped event it pushes a fresh ``"retry"`` whenever queries are
waiting, so the number of events grows quadratically with contention, but
each step is easy to check by hand.  ``tests/test_scheduling_differential.py``
holds the production loop (requests, completions and one wake-up per
admission time) to it field for field.

The only addition to the original is a count of popped retry events, stored
in ``SimulationReport.admission_wakeups`` so the two loops' event counts can
be compared; every other field is computed exactly as before.
"""

from __future__ import annotations

import heapq

from repro.scheduling.contention import (
    AlgorithmWorkload,
    QRAMServiceModel,
    SimulationReport,
)


def run(model: QRAMServiceModel, workloads: list[AlgorithmWorkload]) -> SimulationReport:
    """Run all workloads to completion and report depth / utilization."""
    if not workloads:
        raise ValueError("at least one workload is required")

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
    in_flight: list[float] = []
    next_admission = 0.0
    busy_intervals: list[tuple[float, float]] = []
    query_intervals: list[tuple[float, float]] = []
    total_queue_delay_layers = 0.0
    total_queries = 0
    retries = 0

    def try_admit(now: float) -> None:
        nonlocal next_admission, sequence, total_queue_delay_layers, total_queries
        while waiting:
            in_flight[:] = [f for f in in_flight if f > now]
            if len(in_flight) >= model.parallelism or now < next_admission:
                break
            request_time, _, algorithm = heapq.heappop(waiting)
            start = now
            finish = start + model.weighted_query_latency
            in_flight.append(finish)
            next_admission = start + model.admission_interval
            busy_intervals.append((start, finish))
            query_intervals.append((start, finish))
            total_queue_delay_layers += start - request_time
            total_queries += 1
            heapq.heappush(events, (finish, sequence, "complete", algorithm))
            sequence += 1

    def schedule_retry(now: float) -> None:
        nonlocal sequence
        if not waiting:
            return
        in_flight_active = [f for f in in_flight if f > now]
        candidates = [next_admission]
        if len(in_flight_active) >= model.parallelism and in_flight_active:
            candidates.append(min(in_flight_active))
        retry = max(now, min(candidates)) if candidates else now
        if retry > now:
            heapq.heappush(events, (retry, sequence, "retry", -1))
            sequence += 1

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
            retries += 1
        # retry events only trigger admission below
        try_admit(now)
        schedule_retry(now)

    overall_depth = max(finish_times.values()) if finish_times else 0.0
    busy = _merge_intervals(busy_intervals)
    busy_layers = sum(end - start for start, end in busy)
    query_layers = sum(end - start for start, end in query_intervals)
    makespan = overall_depth if overall_depth > 0 else 1.0
    average_utilization = min(
        1.0, query_layers / (model.parallelism * makespan)
    )
    return SimulationReport(
        model=model,
        overall_depth=overall_depth,
        per_algorithm_finish=finish_times,
        qram_busy_layers=busy_layers,
        qram_query_layers=query_layers,
        average_utilization=average_utilization,
        total_queries=total_queries,
        total_queue_delay_layers=total_queue_delay_layers,
        admission_wakeups=retries,
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
