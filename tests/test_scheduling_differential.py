"""Differential checks of the contention simulator's event loop.

``SharedQRAMSimulation.run`` processes requests, completions and one
admission wake-up per admission time.  The reference is the retry-event
loop in ``tests/oracles/contention_heapq.py``, which re-arms a retry after
every event while queries wait.  Both must produce the same report,
compared with exact ``==`` on every field (``per_algorithm_finish``
including its key order), except ``admission_wakeups``: that counts each
loop's own wake-up events, and the production loop must never use more
than one per query.
"""

import dataclasses
import functools
import hashlib
import json
import pathlib
import random

from oracles import contention_heapq
from repro.algorithms.depth_model import default_profiles
from repro.algorithms.synthetic import SyntheticAlgorithm
from repro.baselines.registry import architecture_names, build_architecture
from repro.scheduling import AlgorithmWorkload, QRAMServiceModel, SharedQRAMSimulation

FIG10_RATIOS = (0.0, 0.5, 1.0, 1.5, 2.0)
FIG10_COUNTS = (1, 5, 10, 15, 20, 25, 30)
PINNED_CELLS = pathlib.Path(__file__).parent / "oracles" / "contention_figure_cells.json"


@functools.cache
def model_for(name, capacity):
    return QRAMServiceModel.from_architecture(build_architecture(name, capacity))


def assert_same_report(got, want):
    assert list(got.per_algorithm_finish.items()) == list(
        want.per_algorithm_finish.items()
    )
    for field in dataclasses.fields(got):
        if field.name != "admission_wakeups":
            assert getattr(got, field.name) == getattr(want, field.name), field.name
    assert got.admission_wakeups <= got.total_queries
    assert got.admission_wakeups <= want.admission_wakeups


def figure_cells():
    """Every Fig. 9 cell (N=1024) and every Fig. 10 cell, as (id, model, workloads)."""
    for profile in default_profiles(1024):
        for name in architecture_names():
            workloads = [
                AlgorithmWorkload(
                    stream,
                    rounds=profile.queries_per_stream,
                    processing_layers=profile.processing_layers,
                )
                for stream in range(profile.parallel_streams)
            ]
            yield f"fig9-{profile.name}-{name}", model_for(name, 1024), workloads
    for name in ("BB", "Fat-Tree"):
        model = model_for(name, 1024)
        for ratio in FIG10_RATIOS:
            for count in FIG10_COUNTS:
                workloads = SyntheticAlgorithm(10, ratio).workloads(
                    count, model.weighted_query_latency
                )
                yield f"fig10-{name}-{ratio}-{count}", model, workloads


def report_digest(report):
    """Hash of every field but ``admission_wakeups``.

    ``repr`` writes floats exactly and dicts in insertion order, so equal
    digests mean equal fields and the same ``per_algorithm_finish`` order.
    """
    values = [
        (field.name, getattr(report, field.name))
        for field in dataclasses.fields(report)
        if field.name != "admission_wakeups"
    ]
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def pinned_cells():
    with PINNED_CELLS.open() as handle:
        return json.load(handle)


def test_figure_cells_match_pinned_oracle_reports():
    pinned = pinned_cells()
    cells = list(figure_cells())
    assert sorted(cell for cell, _, _ in cells) == sorted(pinned)
    for cell, model, workloads in cells:
        report = SharedQRAMSimulation(model).run(workloads)
        want = pinned[cell]
        assert (report.overall_depth, report.total_queries) == (
            want["overall_depth"],
            want["total_queries"],
        ), cell
        assert report_digest(report) == want["digest"], cell
        assert report.admission_wakeups <= report.total_queries, cell


def test_pinned_reports_are_the_oracle_output():
    """Re-derive the pins live wherever the oracle is cheap (<= 100 queries).

    The other 50 cells (15 or more algorithms, or Fig. 9's longer profiles)
    cost the oracle up to seconds each; regenerate all pins with
    ``PYTHONPATH=src:tests python tests/test_scheduling_differential.py``.
    """
    pinned = pinned_cells()
    live = 0
    for cell, model, workloads in figure_cells():
        if sum(w.rounds for w in workloads) > 100:
            continue
        want = contention_heapq.run(model, workloads)
        assert report_digest(want) == pinned[cell]["digest"], cell
        assert_same_report(SharedQRAMSimulation(model).run(workloads), want)
        live += 1
    assert live == 40


def random_case(rng):
    """One seeded workload set with the tie-prone values drawn on purpose."""
    model = model_for(
        rng.choice(architecture_names()), rng.choice((4, 8, 16, 64, 256, 1024))
    )
    interval, latency = model.admission_interval, model.weighted_query_latency
    workloads = []
    for algorithm in range(rng.randint(1, 12)):
        processing = rng.choice(
            (0.0, interval, 2 * interval, latency, rng.uniform(0.0, 3 * latency))
        )
        start = rng.choice(
            (0.0, float(rng.randint(0, 50)), interval * rng.randint(0, 6))
        )
        workloads.append(
            AlgorithmWorkload(algorithm, rng.randint(0, 6), processing, start)
        )
    return model, workloads


def test_random_cases_match_oracle():
    rng = random.Random(20241017)
    some_zero_round = all_zero_round = 0
    for _ in range(2000):
        model, workloads = random_case(rng)
        some_zero_round += any(w.rounds == 0 for w in workloads)
        all_zero_round += all(w.rounds == 0 for w in workloads)
        assert_same_report(
            SharedQRAMSimulation(model).run(workloads),
            contention_heapq.run(model, workloads),
        )
    assert some_zero_round > 100 and all_zero_round > 0


def test_fig10_worst_cell_needs_at_most_one_wakeup_per_query():
    """The retry loop pops 97,367 retries for these 300 queries; now <= 1 each."""
    model = model_for("BB", 1024)
    workloads = SyntheticAlgorithm(10, 0.0).workloads(30, model.weighted_query_latency)
    report = SharedQRAMSimulation(model).run(workloads)
    assert report.total_queries == 300
    assert report.admission_wakeups <= report.total_queries


if __name__ == "__main__":
    PINNED_CELLS.write_text(
        json.dumps(
            {
                cell: {
                    "overall_depth": report.overall_depth,
                    "total_queries": report.total_queries,
                    "digest": report_digest(report),
                }
                for cell, model, workloads in figure_cells()
                for report in [contention_heapq.run(model, workloads)]
            },
            indent=1,
        )
        + "\n"
    )
