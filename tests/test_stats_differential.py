"""Differential check: production ``summarize_service`` == the batch oracle.

Every :class:`~repro.metrics.service_stats.ServiceStats` is computed by
folding records through :class:`repro.metrics.streaming.StreamingServiceAggregator`
(``summarize_service`` drives an exact aggregator over complete record
lists).  ``tests/oracles/service_stats_batch.py`` keeps the original
record-list summarizer, which groups the records and aggregates each group
with builtin ``sum`` / ``min`` / ``max``.  This module serves ~150 seeded
fuzzer scenarios under full retention and holds the two to each other on
every field of every ``ServiceStats`` / ``TenantStats`` / ``ShardStats`` /
``BackendStats``, and on ``repr``.  The same draws hold the sweep's
``report_digest`` to its ``dataclasses.asdict`` original
(``tests/oracles/report_digest_asdict.py``).

Python 3.12 made builtin ``sum()`` of floats Neumaier-compensated, while
the aggregator accumulates with plain ``+=``.  On 3.12+ the float fields
derived from sums — the means, ``busy_layers`` and ``utilization`` — may
therefore differ in the last bits, and are compared with
``math.isclose(rel_tol=1e-12)``; every other field (counts, extrema,
percentiles, rates, labels) and, below 3.12, everything including
``repr`` must match exactly.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from typing import Any

from oracles.report_digest_asdict import report_digest as oracle_digest
from oracles.service_stats_batch import summarize_service as oracle_summarize
from repro.metrics import summarize_service
from repro.scenarios import draw_spec
from repro.sweep import report_digest

SEEDS = range(150)

#: Builtin ``sum()`` of floats is compensated from Python 3.12 on.
COMPENSATED_SUM = sys.version_info >= (3, 12)


def _summed(field_name: str) -> bool:
    return field_name.startswith("mean_") or field_name in (
        "busy_layers",
        "utilization",
    )


def _assert_same(actual: Any, expected: Any, path: str) -> None:
    assert type(actual) is type(expected), f"{path}: {actual!r} != {expected!r}"
    if dataclasses.is_dataclass(expected):
        for field in dataclasses.fields(expected):
            _assert_same(
                getattr(actual, field.name),
                getattr(expected, field.name),
                f"{path}.{field.name}",
            )
    elif isinstance(expected, dict):
        assert list(actual) == list(expected), f"{path}: keys differ"
        for key in expected:
            _assert_same(actual[key], expected[key], f"{path}[{key!r}]")
    elif (
        COMPENSATED_SUM
        and isinstance(expected, float)
        and _summed(path.rsplit(".", 1)[-1])
    ):
        assert math.isclose(actual, expected, rel_tol=1e-12), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert repr(actual) == repr(expected), f"{path}: {actual!r} != {expected!r}"


def test_summarize_service_matches_batch_oracle():
    compared = 0
    for seed in SEEDS:
        spec = draw_spec(random.Random(seed))
        # The runtime sanitizer only observes (sanitized runs are pinned
        # bit-identical to plain ones), so it is off here: this test is
        # about aggregation.
        spec = dataclasses.replace(
            spec,
            run=dataclasses.replace(
                spec.run, retention="full", workers=0, sanitize=False
            ),
        )
        try:
            report = spec.execute()
        except ValueError as exc:
            if "no queries were served" in str(exc):
                continue
            raise
        depths = {
            shard: stats.max_queue_depth
            for shard, stats in report.stats.per_shard.items()
        }
        clops = spec.run.clops
        production = summarize_service(
            report.served, report.windows, depths, clops, report.rejected
        )
        oracle = oracle_summarize(
            report.served, report.windows, depths, clops, report.rejected
        )
        _assert_same(production, oracle, f"seed {seed}: stats")
        if not COMPENSATED_SUM:
            assert production == oracle, f"seed {seed}"
            assert repr(production) == repr(oracle), f"seed {seed}"
        # The engine's full-retention stats are this same summary.
        assert report.stats == production, f"seed {seed}"
        assert report_digest(report) == oracle_digest(report), f"seed {seed}"
        compared += 1
    # Most draws serve something; a vacuous sweep would prove nothing.
    assert compared > len(SEEDS) * 3 // 4
