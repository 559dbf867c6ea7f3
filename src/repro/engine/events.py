"""Typed events and the virtual-time event heap of the serving engine.

The engine advances one virtual clock (raw circuit layers) over a heap of
typed events.  Events at the same timestamp are ordered by a per-type
priority so that one instant unfolds deterministically and exactly like the
legacy batch-window loop did:

1. :class:`ClientThink` — every request that arrives at time ``t`` is
   enqueued before any window admits at ``t`` (every arrival is a think
   event: a closed-loop client issues its next request the moment its
   think time elapses, and an open-loop trace paces its next pending
   request the same way);
2. :class:`WindowDrain` — shards that finish at ``t`` free up before new
   windows are considered;
3. :class:`ScaleCheck` — the autoscaler observes the post-drain queue
   depths;
4. :class:`WindowStart` — idle shards with queued work admit one pipeline
   window each;
5. :class:`TelemetryTick` — the periodic telemetry flush observes the
   instant last, after every admission at ``t`` has resolved, so its
   queue-depth snapshot never counts work a window at the same instant
   already absorbed.

Ties within a priority level resolve in scheduling order (a monotone
sequence number), so every run is exactly reproducible.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any, ClassVar, Union


@dataclass(frozen=True)
class ClientThink:
    """A client issues its next request (a closed-loop think time ends, or
    an open-loop trace's pending request arrives)."""

    client_id: int
    PRIORITY: ClassVar[int] = 1


@dataclass(frozen=True)
class WindowDrain:
    """A shard's in-flight pipeline window fully drains; the shard is free."""

    shard: int
    PRIORITY: ClassVar[int] = 2


@dataclass(frozen=True)
class ScaleCheck:
    """Periodic autoscaler tick: compare queue depths against watermarks."""

    PRIORITY: ClassVar[int] = 3


@dataclass(frozen=True)
class WindowStart:
    """An idle shard with queued work admits one pipeline window."""

    shard: int
    PRIORITY: ClassVar[int] = 4


@dataclass(frozen=True)
class TelemetryTick:
    """Periodic telemetry flush: emit one time-windowed interval sample."""

    PRIORITY: ClassVar[int] = 5


Event = Union[ClientThink, WindowDrain, ScaleCheck, WindowStart, TelemetryTick]


class SanitizerViolation(AssertionError):
    """A runtime simulation invariant was broken.

    Raised only in sanitizer mode (``ServiceEngine(sanitize=True)`` /
    ``REPRO_SANITIZE=1``): clock monotonicity, heap-key ordering, window
    admission on a busy shard, or the request-conservation invariant.
    """


def merge_sorted_records(
    streams: Sequence[Sequence[Any]],
    key: Callable[[Any], Any],
    *,
    sanitize: bool = False,
    description: str = "record",
) -> list[Any]:
    """Deterministic k-way merge of per-partition record streams.

    Parallel serving reassembles each shard's records into the global
    order the single-process oracle would have produced; the merge is the
    list analogue of the :class:`EventHeap` pop order, keyed the same way
    (``heapq.merge`` is stable, so equal keys resolve in stream — i.e.
    shard — order).  In sanitizer mode every input stream is first checked
    to be nondecreasing under ``key``: a worker whose records come back
    out of order would silently corrupt the merged timeline, which is
    exactly the class of bug the sanitizer exists to catch at the
    worker boundary.

    Raises:
        SanitizerViolation: when ``sanitize`` and a stream's keys are not
            nondecreasing.
    """
    if sanitize:
        for index, stream in enumerate(streams):
            last: Any = None
            for record in stream:
                current = key(record)
                if last is not None and current < last:
                    raise SanitizerViolation(
                        f"{description} stream {index} is not nondecreasing "
                        f"across the worker boundary: key {current!r} after "
                        f"{last!r}"
                    )
                last = current
    return list(heapq.merge(*streams, key=key))


class EventHeap:
    """A min-heap of events keyed on ``(time, type priority, sequence)``.

    The sequence number both breaks ties deterministically and keeps the
    heap from ever comparing event payloads.

    Args:
        sanitize: verify on every operation that timestamps are finite
            numbers and that popped keys come out in nondecreasing
            ``(time, priority, sequence)`` order — the oracle ordering the
            planned parallel event-merge must reproduce.
    """

    def __init__(self, sanitize: bool = False) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._sanitize = sanitize
        self._last_key: tuple[float, int, int] | None = None
        #: Type priority of the most recently popped event (-1 before the
        #: first pop): the phase of the current instant being processed.
        self.last_priority = -1

    def push(self, time: float, event: Event) -> None:
        """Schedule an event at an absolute virtual time (raw layers)."""
        if self._sanitize and not time == time:  # NaN defeats heap ordering
            raise SanitizerViolation(
                f"event {type(event).__name__} scheduled at NaN"
            )
        heapq.heappush(self._heap, (time, event.PRIORITY, self._sequence, event))
        self._sequence += 1

    def pop(self) -> tuple[float, Event]:
        """Remove and return the next ``(time, event)`` pair."""
        time, priority, sequence, event = heapq.heappop(self._heap)
        self.last_priority = priority
        if self._sanitize:
            key = (time, priority, sequence)
            if self._last_key is not None and key < self._last_key:
                raise SanitizerViolation(
                    f"heap popped key {key} after {self._last_key}: "
                    "event order is not nondecreasing"
                )
            self._last_key = key
        return time, event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
