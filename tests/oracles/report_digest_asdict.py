"""``dataclasses.asdict`` report digest: the reference for ``report_digest``.

This is the original :func:`repro.sweep.engine.report_digest`, which
flattens every record through ``dataclasses.asdict`` and encodes the whole
payload in one ``json.dumps`` call.  Production encodes each field on its
own and the record streams column by column;
``tests/test_sweep.py``, ``tests/test_stats_differential.py`` and
``tests/test_lazy_amplitudes.py`` hold the two digests equal.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.engine.core import ServiceReport
from repro.sweep.engine import _canonical


def report_digest(report: ServiceReport) -> str:
    """SHA-256 over the canonical JSON of a report's *result* content.

    Covers everything two equal runs must agree on — stats, retained
    records, outputs, telemetry — and excludes the observational fields
    (``parallel``, ``profile``, ``cache_stats``) exactly as report
    equality does.  Two reports share a digest iff they compare equal,
    which is how sweep rows pin per-point bit-identity across pool sizes
    without shipping whole reports around.
    """
    payload = {
        "served": [dataclasses.asdict(r) for r in report.served],
        "windows": [dataclasses.asdict(r) for r in report.windows],
        "stats": dataclasses.asdict(report.stats),
        "outputs": report.outputs,
        "rejected": [dataclasses.asdict(r) for r in report.rejected],
        "scale_events": [dataclasses.asdict(r) for r in report.scale_events],
        "telemetry": [dataclasses.asdict(r) for r in report.telemetry],
        "retention": report.retention,
    }
    text = json.dumps(
        _canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
