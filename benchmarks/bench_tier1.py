"""Tier-1 test suite wall time (BENCH_tier1).

Runs the tier-1 suite (``python -m pytest -q`` from the repository root, the
command CI runs) once in a subprocess and *appends* one row to the ``"runs"``
trajectory in ``BENCH_tier1.json``: wall seconds, the passed / failed /
skipped test counts, the five slowest test phases as pytest's
``--durations`` reports them, the host CPU count and the git commit.  Rows
are never rewritten.

    PYTHONPATH=src python benchmarks/bench_tier1.py

The pytest entry point (``pytest benchmarks/bench_tier1.py``) only checks the
recorded trajectory's schema; it never runs the suite inside the suite.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = ROOT / "BENCH_tier1.json"
SLOWEST = 5

ROW_SCHEMA = (
    "label", "cpu_count", "git_commit", "python", "wall_seconds",
    "pytest_seconds", "passed", "failed", "skipped", "slowest",
)
SLOW_SCHEMA = ("seconds", "phase", "test")

_COUNT = re.compile(r"(\d+) (passed|failed|skipped|errors?)")
_SUMMARY_TIME = re.compile(r" in ([0-9.]+)s")
_DURATION = re.compile(r"^([0-9.]+)s (call|setup|teardown)\s+(\S+)")


def git_commit() -> str:
    """HEAD's hash, suffixed ``-dirty`` when the working tree has changes."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def parse_output(text: str) -> dict:
    """Counts, pytest's own elapsed time and the slowest phases of one run."""
    summary = [line for line in text.splitlines() if _SUMMARY_TIME.search(line)]
    last = summary[-1] if summary else ""
    counts = {kind: 0 for kind in ("passed", "failed", "skipped")}
    for number, kind in _COUNT.findall(last):
        key = "failed" if kind.startswith("error") else kind
        counts[key] += int(number)
    match = _SUMMARY_TIME.search(last)
    slowest = []
    for line in text.splitlines():
        found = _DURATION.match(line.strip())
        if found and len(slowest) < SLOWEST:
            slowest.append({
                "seconds": float(found.group(1)),
                "phase": found.group(2),
                "test": found.group(3),
            })
    return {
        "pytest_seconds": float(match.group(1)) if match else None,
        **counts,
        "slowest": slowest,
    }


def run_suite() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if part
    )
    command = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        f"--durations={SLOWEST}",
    ]
    started = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, check=False
    )
    wall = time.perf_counter() - started
    return {
        "label": "tier1",
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "wall_seconds": round(wall, 3),
        **parse_output(done.stdout),
    }


def _load_trajectory() -> list[dict]:
    if not RESULT_PATH.exists():
        return []
    return json.loads(RESULT_PATH.read_text(encoding="utf-8"))["runs"]


def _check_row(row: dict) -> None:
    assert tuple(row) == ROW_SCHEMA, f"trajectory row schema drift: {list(row)}"
    assert len(row["slowest"]) <= SLOWEST
    for entry in row["slowest"]:
        assert tuple(entry) == SLOW_SCHEMA, f"slowest schema drift: {list(entry)}"


def test_parse_output():
    text = (
        "....\n"
        "============================= slowest 5 durations =====\n"
        "9.50s call     tests/test_a.py::test_slow\n"
        "0.20s setup    tests/test_b.py::test_fixture\n"
        "3 failed, 740 passed, 2 skipped in 30.12s\n"
    )
    parsed = parse_output(text)
    assert parsed["pytest_seconds"] == 30.12
    assert (parsed["passed"], parsed["failed"], parsed["skipped"]) == (740, 3, 2)
    assert parsed["slowest"][0] == {
        "seconds": 9.5, "phase": "call", "test": "tests/test_a.py::test_slow",
    }


def test_recorded_trajectory_schema():
    for row in _load_trajectory():
        _check_row(row)


def main() -> None:
    row = run_suite()
    _check_row(row)
    runs = _load_trajectory()
    runs.append(row)
    RESULT_PATH.write_text(
        json.dumps({"runs": runs}, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {RESULT_PATH} ({len(runs)} run(s) in the trajectory)")
    print(
        f"tier-1: {row['passed']} passed, {row['failed']} failed, "
        f"{row['skipped']} skipped in {row['wall_seconds']:.1f} s wall "
        f"({row['cpu_count']} CPUs)"
    )
    for entry in row["slowest"]:
        print(f"  {entry['seconds']:7.2f} s {entry['phase']:<8} {entry['test']}")
    if row["failed"]:
        sys.exit(f"{row['failed']} tier-1 test(s) failed")


if __name__ == "__main__":
    main()
