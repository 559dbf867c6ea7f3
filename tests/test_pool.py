"""Worker death in :class:`~repro.engine.pool.ForkWorkerPool`.

A worker that dies mid-task must not hang or abort the pool: every task
it still owed comes back as a :class:`~repro.engine.pool.PoolTaskError`
outcome, a freshly forked replacement serves the tasks that follow, and
the sweep engine surfaces the lowest failing task's error whatever the
completion order.
"""

from __future__ import annotations

import os

import pytest

import repro.sweep.engine as sweep_engine
from repro.engine.pool import ForkWorkerPool, PoolTaskError, fork_available
from repro.scenarios.spec import FleetSpec, ScenarioSpec, WorkloadSpec
from repro.sweep import SweepSpec, run_sweep

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)


def _die_on(payload: str) -> tuple[str, int]:
    """Return the payload and this worker's pid; exit hard on ``"die"``."""
    if payload == "die":
        os._exit(1)
    return payload, os.getpid()


def _run(pool: ForkWorkerPool, payloads: list[str]):
    return pool.run((i, payload, 0) for i, payload in enumerate(payloads))


def test_replacement_worker_serves_the_tasks_after_a_death():
    with ForkWorkerPool(_die_on, workers=1, max_inflight=1) as pool:
        first, died, *rest = _run(pool, ["a", "die", "b", "c"])
        assert pool.workers == 1
    assert first.error is None and first.result[0] == "a"
    assert isinstance(died.error, PoolTaskError)
    assert str(died.error).endswith("task 1")
    assert [outcome.error for outcome in rest] == [None, None]
    assert [outcome.result[0] for outcome in rest] == ["b", "c"]
    replacement_pids = {outcome.result[1] for outcome in rest}
    assert len(replacement_pids) == 1
    assert first.result[1] not in replacement_pids


def test_every_task_the_dead_worker_owed_fails():
    # Payloads larger than a pipe buffer: sending task 1 blocks until the
    # worker reads it, so the worker dies mid-send (a broken pipe) rather
    # than with the tasks already queued.
    bulky = "x" * 200_000
    with ForkWorkerPool(_die_on, workers=1, max_inflight=4) as pool:
        outcomes = _run(pool, ["die", bulky, bulky])
        assert [type(outcome.error) for outcome in outcomes] == [PoolTaskError] * 3
        assert [str(outcome.error)[-6:] for outcome in outcomes] == [
            "task 0", "task 1", "task 2",
        ]
        again = _run(pool, ["c", "d"])
    assert [outcome.error for outcome in again] == [None, None]
    assert [outcome.result[0] for outcome in again] == ["c", "d"]


def test_sweep_raises_the_lowest_dead_task_error(monkeypatch):
    """Two of four points kill their worker; the sweep raises task 1's
    error (the lowest), never a completion-order-dependent one."""
    execute = sweep_engine._execute

    def die_on_slow_arrivals(spec, keep_report):
        if spec.workload.mean_interarrival == 6.0:
            os._exit(1)
        return execute(spec, keep_report)

    monkeypatch.setattr(sweep_engine, "_execute", die_on_slow_arrivals)
    sweep = SweepSpec(
        base=ScenarioSpec(
            fleet=FleetSpec(capacity=16, shards=("Fat-Tree", "BB")),
            workload=WorkloadSpec(
                kind="poisson", num_queries=12, mean_interarrival=3.0, seed=7
            ),
        ),
        axes=(
            ("policy.admission", ("fifo", "priority")),
            ("workload.mean_interarrival", (2.0, 6.0)),
        ),
    )
    for max_inflight in (1, 4):
        with pytest.raises(PoolTaskError, match=r"for task 1$"):
            run_sweep(sweep, pool_size=1, max_inflight=max_inflight)
