"""Discrete-event serving engine: the one place virtual time advances.

* :mod:`repro.engine.events` — typed events (:class:`ClientThink`,
  :class:`WindowStart`, :class:`WindowDrain`, :class:`ScaleCheck`,
  :class:`TelemetryTick`) and the virtual-time :class:`EventHeap`.
* :mod:`repro.engine.workload` — the :class:`WorkloadSource` interface
  unifying open-loop traces (:class:`TraceSource`, from a materialized
  list or a lazy trace factory) and closed-loop think-time clients
  (:class:`ClosedLoopSource`).
* :mod:`repro.engine.core` — :class:`ServiceEngine` (SLO-aware admission,
  backpressure, elastic fleets, record retention modes and periodic
  telemetry) and the :class:`ServiceReport` it returns.
* :mod:`repro.engine.partition` / :mod:`repro.engine.parallel` —
  partitioned parallel serving: ``ServiceEngine(workers=N)`` shards the
  fleet across forked worker processes and merges the events back
  deterministically (bit-identical reports across worker counts); a
  factory-backed :class:`TraceSource` lets each worker regenerate just
  its partition of a lazy trace.

:meth:`repro.service.QRAMService.serve` is a thin wrapper over this engine;
richer scenarios go through :meth:`~repro.service.QRAMService.serve_workload`.
"""

from repro.engine.core import (
    RETENTIONS,
    SANITIZE_ENV,
    WORKERS_ENV,
    AutoscalerConfig,
    ServiceEngine,
    ServiceReport,
)
from repro.engine.events import (
    ClientThink,
    Event,
    EventHeap,
    SanitizerViolation,
    ScaleCheck,
    TelemetryTick,
    WindowDrain,
    WindowStart,
    merge_sorted_records,
)
from repro.engine.partition import (
    ParallelRunInfo,
    partition_shards,
    partition_unsupported_reason,
)
from repro.engine.workload import (
    ClosedLoopClient,
    ClosedLoopSource,
    TraceSource,
    WorkloadSource,
)

__all__ = [
    "ServiceEngine",
    "ServiceReport",
    "AutoscalerConfig",
    "RETENTIONS",
    "WorkloadSource",
    "TraceSource",
    "ClosedLoopClient",
    "ClosedLoopSource",
    "EventHeap",
    "Event",
    "ClientThink",
    "WindowStart",
    "WindowDrain",
    "ScaleCheck",
    "TelemetryTick",
    "SanitizerViolation",
    "SANITIZE_ENV",
    "WORKERS_ENV",
    "ParallelRunInfo",
    "partition_shards",
    "partition_unsupported_reason",
    "merge_sorted_records",
]
