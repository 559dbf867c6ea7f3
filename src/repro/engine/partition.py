"""Fleet partitioning for parallel serving: plan and gate.

Parallel serving (:mod:`repro.engine.parallel`) runs one child
:class:`~repro.engine.core.ServiceEngine` per shard and merges the events
back deterministically.  That is only *exact* when the shards are truly
independent — no cross-shard placement, no shared mutable scheduling
state, no feedback from one shard's completions into another shard's
arrivals.  This module holds the machinery that decides exactness:

* :func:`partition_unsupported_reason` — the single predicate gating the
  parallel path.  Any coupling (replicated placement, autoscaling, a
  random admission policy's shared RNG, closed-loop pacing, an external
  record sink) falls back to the single-process oracle, with the reason
  recorded on the report's :class:`ParallelRunInfo`.  Every open-loop
  :class:`~repro.engine.workload.TraceSource` partitions, through its
  :meth:`~repro.engine.workload.TraceSource.shard_sources` hook.
* :func:`partition_shards` — the deterministic round-robin assignment of
  shards to workers.  Partition granularity is always one engine per
  shard regardless of worker count, which is what makes the merged output
  worker-count invariant: ``workers=8`` merges the same per-shard streams
  as ``workers=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.workload import TraceSource, WorkloadSource

if TYPE_CHECKING:
    from repro.engine.core import ServiceEngine

__all__ = [
    "ParallelRunInfo",
    "partition_shards",
    "partition_unsupported_reason",
]


@dataclass(frozen=True)
class ParallelRunInfo:
    """How one engine run was (or was not) parallelized.

    Attributes:
        workers: worker processes that actually ran partitions (0 when the
            run fell back to the single-process oracle).
        partitions: per-shard partitions that were served (0 on fallback).
        fallback_reason: why the run stayed single-process (``None`` when
            it was partitioned).
        worker_seconds: wall-clock seconds each worker spent serving its
            partitions — the per-worker timing counters of the parallel
            benchmarks.
    """

    workers: int
    partitions: int
    fallback_reason: str | None
    worker_seconds: tuple[float, ...]


def partition_shards(num_shards: int, workers: int) -> list[list[int]]:
    """Round-robin assignment of shard indices to workers.

    Deterministic and independent of anything but the two counts; empty
    groups (more workers than shards) are dropped.
    """
    if num_shards < 1 or workers < 1:
        raise ValueError("num_shards and workers must be >= 1")
    groups = [list(range(worker, num_shards, workers)) for worker in range(workers)]
    return [group for group in groups if group]


def partition_unsupported_reason(
    engine: ServiceEngine, source: WorkloadSource
) -> str | None:
    """Why this run cannot be partitioned exactly (``None`` when it can).

    Partitioned execution must be *bit-identical* to the single-process
    oracle, so anything that couples shards forces a fallback.  The
    returned string is recorded on the report's
    :class:`ParallelRunInfo.fallback_reason` so a fallback is always
    observable, never silent.
    """
    if not isinstance(source, TraceSource):
        return (
            f"{type(source).__name__} paces arrivals on cross-shard "
            "completion feedback and cannot be partitioned"
        )
    fleet = engine.fleet
    placement = getattr(fleet, "placement", None)
    if placement != "interleaved":
        return (
            f"placement {placement!r} lets a query run on any replica; only "
            "interleaved fleets pin every request to one shard"
        )
    if engine.autoscaler is not None:
        return "autoscaling mutates the fleet mid-run across shards"
    if engine.sink is not None:
        return (
            "an external record sink observes records in global completion "
            "order"
        )
    if len(fleet.shards) < 2:
        return "a single-shard fleet has nothing to partition"
    if hasattr(fleet.policy, "_rng"):
        return (
            f"admission policy {type(fleet.policy).__name__} draws from "
            "shared random state, coupling shards' admission orders"
        )
    return None
