"""Gate-level pipelined windows on one Fat-Tree executor (BENCH_functional).

The functional path simulates every gate of a ``run_pipelined_queries``
window on :class:`~repro.sim.sparse.SparseState`.  Its cost grows with the
router count (capacity) and, through the number of concurrent terms, with the
batch: ``batch`` queries with two-address superpositions and a Hadamard'd bus
hold up to ``4 ** batch`` basis terms at once.

For each capacity in 16 / 64 / 256 and batch in 1 / 4 the benchmark builds a
seeded executor, runs one untimed window that counts gates and the peak term
count (and warms the executor's schedule and lowering caches), then times
``REPEATS`` identical windows and records the median.  Every window must
return fidelity-1 outputs and leave the router tree clean.

The run *appends* one entry to the ``"runs"`` trajectory in
``BENCH_functional.json`` (per-window wall time, qubits, gates, peak terms,
host CPU count, git commit); entries are never rewritten.

    PYTHONPATH=src python benchmarks/bench_functional.py

Environment knobs:

* ``QRAM_FUNCTIONAL_MIN_QPS`` — when set (> 0), fail if the capacity-256,
  batch-4 window serves fewer queries per wall-clock second than this (the
  CI regression floor; set it from a recorded row).

The pytest entry point (``pytest benchmarks/bench_functional.py``) runs the
capacity-16 cells only.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import repro.core.executor
from repro.core import QueryRequest
from repro.core.executor import FatTreeExecutor
from repro.sim.sparse import SparseState

CAPACITIES = (16, 64, 256)
BATCHES = (1, 4)
ADDRESSES_PER_QUERY = 2
REPEATS = 3
SEED = 11
#: The gated cell: the largest capacity at the paper's pipelining depth.
HEADLINE = (256, 4)
MIN_QPS = float(os.environ.get("QRAM_FUNCTIONAL_MIN_QPS", "0"))

ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = ROOT / "BENCH_functional.json"

ROW_SCHEMA = ("label", "cpu_count", "git_commit", "windows")
WINDOW_SCHEMA = (
    "capacity",
    "batch",
    "wall_seconds",
    "queries_per_sec",
    "qubits",
    "gates",
    "peak_terms",
)


class _CountingState(SparseState):
    """Counts gates and tracks the peak term count of one window."""

    def __init__(self, qubits=()) -> None:
        super().__init__(qubits)
        self.gates = 0
        self.peak_terms = self.num_terms

    def apply_gate(self, gate, qubits, theta=None) -> None:
        super().apply_gate(gate, qubits, theta)
        self.gates += 1
        self.peak_terms = max(self.peak_terms, self.num_terms)


def _requests(capacity: int, batch: int, rng: random.Random) -> list[QueryRequest]:
    requests = []
    for query_id in range(batch):
        addresses = rng.sample(range(capacity), ADDRESSES_PER_QUERY)
        amplitudes = {
            a: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for a in addresses
        }
        requests.append(QueryRequest(query_id, amplitudes))
    return requests


def _check_window(executor: FatTreeExecutor, requests, outputs) -> None:
    for request in requests:
        fidelity = executor.query_fidelity(request, outputs[request.query_id])
        assert fidelity > 1 - 1e-9, (request.query_id, fidelity)
    assert executor.tree_is_clean()


def measure_window(capacity: int, batch: int) -> dict:
    """One grid cell: a counted warm-up window, then ``REPEATS`` timed ones."""
    rng = random.Random(SEED * 1_000_003 + capacity * 10 + batch)
    executor = FatTreeExecutor(capacity, [rng.randint(0, 1) for _ in range(capacity)])
    requests = _requests(capacity, batch, rng)

    production = repro.core.executor.SparseState
    repro.core.executor.SparseState = _CountingState
    try:
        _, outputs = executor.run_pipelined_queries(requests)
    finally:
        repro.core.executor.SparseState = production
    counted = executor._final_state
    _check_window(executor, requests, outputs)

    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _, outputs = executor.run_pipelined_queries(requests)
        walls.append(time.perf_counter() - start)
        _check_window(executor, requests, outputs)
    wall = statistics.median(walls)
    return {
        "capacity": capacity,
        "batch": batch,
        "wall_seconds": round(wall, 5),
        "queries_per_sec": round(batch / wall, 2),
        "qubits": counted.num_qubits,
        "gates": counted.gates,
        "peak_terms": counted.peak_terms,
    }


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


def run_grid(capacities=CAPACITIES, batches=BATCHES) -> dict:
    windows = [measure_window(c, b) for c in capacities for b in batches]
    return {
        "label": "functional-window",
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "windows": windows,
    }


def _load_trajectory() -> list[dict]:
    if not RESULT_PATH.exists():
        return []
    return json.loads(RESULT_PATH.read_text(encoding="utf-8"))["runs"]


def _check_row(row: dict) -> None:
    assert tuple(row) == ROW_SCHEMA, f"trajectory row schema drift: {list(row)}"
    for window in row["windows"]:
        assert tuple(window) == WINDOW_SCHEMA, (
            f"window schema drift: {list(window)}"
        )
        assert window["peak_terms"] <= (2 * ADDRESSES_PER_QUERY) ** window["batch"]


def test_functional_window_capacity_16(benchmark):
    """Reduced entry: the capacity-16 cells, checked and schema-validated."""
    row = run_grid(capacities=(16,))
    benchmark(lambda: row)
    _check_row(row)
    peaks = {w["batch"]: w["peak_terms"] for w in row["windows"]}
    assert peaks == {1: 4, 4: 256}


def test_recorded_trajectory_schema():
    for row in _load_trajectory():
        _check_row(row)


def main() -> None:
    row = run_grid()
    _check_row(row)
    runs = _load_trajectory()
    runs.append(row)
    RESULT_PATH.write_text(json.dumps({"runs": runs}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {RESULT_PATH} ({len(runs)} run(s) in the trajectory)")
    print(f"{'capacity':>8} {'batch':>5} {'wall_s':>9} {'q/s':>9} "
          f"{'qubits':>6} {'gates':>6} {'peak':>5}")
    for w in row["windows"]:
        print(f"{w['capacity']:>8} {w['batch']:>5} {w['wall_seconds']:>9.4f} "
              f"{w['queries_per_sec']:>9.2f} {w['qubits']:>6} {w['gates']:>6} "
              f"{w['peak_terms']:>5}")
    if MIN_QPS > 0:
        headline = next(
            w for w in row["windows"] if (w["capacity"], w["batch"]) == HEADLINE
        )
        if headline["queries_per_sec"] < MIN_QPS:
            sys.exit(
                f"capacity-{HEADLINE[0]} batch-{HEADLINE[1]} window served "
                f"{headline['queries_per_sec']} queries/s, below the "
                f"QRAM_FUNCTIONAL_MIN_QPS floor of {MIN_QPS}"
            )


if __name__ == "__main__":
    main()
