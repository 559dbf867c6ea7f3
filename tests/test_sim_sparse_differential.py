"""Differential checks of the bit-matrix ``SparseState``.

Two references:

* the dict-of-tuples simulator in ``tests/oracles/sparse_dict.py``, which the
  production simulator must reproduce bit for bit: the same ``items()`` keys
  in the same order, exactly equal amplitudes, the same term count and the
  same ``register_amplitudes`` (values and key order);
* the dense ``StatevectorSimulator`` replaying the same lowered gate stream,
  which must agree with ``to_statevector()`` to rounding.
"""

import math
import random

import numpy as np
import pytest

import repro.core.executor as core_executor
from oracles.sparse_dict import SparseState as DictSparseState
from repro.bucket_brigade.executor import BBExecutor
from repro.core import QueryRequest
from repro.core.executor import FatTreeExecutor
from repro.sim.gates import GATES
from repro.sim.sparse import SparseState
from repro.sim.statevector import StatevectorSimulator


def assert_identical(fast, oracle):
    fast_items, oracle_items = list(fast.items()), list(oracle.items())
    assert [basis for basis, _ in fast_items] == [b for b, _ in oracle_items]
    for (basis, got), (_, want) in zip(fast_items, oracle_items):
        assert got == want, (basis, got, want)
    assert fast.num_terms == oracle.num_terms
    assert fast.qubits == oracle.qubits


def register_outcome(state, qubits):
    """``register_amplitudes`` as (key order, values), or the error it raised."""
    try:
        amps = state.register_amplitudes(qubits)
    except ValueError as exc:
        return str(exc)
    return list(amps.items())


def random_amplitudes(rng, width):
    values = rng.sample(range(2**width), rng.randint(1, 2**width))
    return {
        v: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for v in values
    }


# ------------------------------------------------------------ random circuits
@pytest.mark.parametrize("seed", range(40))
def test_random_circuits_match_dict_oracle(seed):
    rng = random.Random(seed)
    qubits = [f"q{i}" for i in range(rng.randint(4, 9))]
    fast, oracle = SparseState(qubits), DictSparseState(qubits)
    width = rng.randint(1, 3)
    amps = random_amplitudes(rng, width)
    fast.prepare_superposition(qubits[:width], amps)
    oracle.prepare_superposition(qubits[:width], amps)
    gates = sorted(GATES)
    for step in range(60):
        name = gates[step % len(gates)] if step < len(gates) else rng.choice(gates)
        targets = rng.sample(qubits, GATES[name].n_qubits)
        theta = rng.uniform(-math.pi, math.pi) if GATES[name].is_parametric else None
        fast.apply_gate(name, targets, theta)
        oracle.apply_gate(name, targets, theta)
        assert_identical(fast, oracle)
    for _ in range(4):
        register = rng.sample(qubits, rng.randint(1, 3))
        assert register_outcome(fast, register) == register_outcome(
            oracle, register
        )
    assert fast.qubit_values() == oracle.qubit_values()


def test_sub_threshold_product_is_pruned_at_preparation():
    """Two small branches multiply below the threshold; preparation drops
    the product term, so permutation gates may skip pruning."""
    fast, oracle = SparseState(), DictSparseState()
    for state in (fast, oracle):
        state.prepare_superposition(["a"], {0: 1.0, 1: 1e-6})
        state.prepare_superposition(["b"], {0: 1.0, 1: 1e-7})
    assert_identical(fast, oracle)
    assert [basis for basis, _ in fast.items()] == [(0, 0), (0, 1), (1, 0)]
    fast.apply_gate("CX", ["a", "b"])
    oracle.apply_gate("CX", ["a", "b"])
    assert_identical(fast, oracle)


# ----------------------------------------------------------------- executors
def random_request(rng, query_id, capacity, initial_bus=0):
    addresses = rng.sample(range(capacity), 2)
    amps = {a: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for a in addresses}
    return QueryRequest(query_id, amps, initial_bus=initial_bus)


@pytest.mark.parametrize("capacity", [4, 16])
@pytest.mark.parametrize("batch", [1, 2, 3, 4])
def test_fat_tree_pipelined_windows_match_dict_oracle(monkeypatch, capacity, batch):
    rng = random.Random(capacity * 10 + batch)
    data = [rng.randint(0, 1) for _ in range(capacity)]
    requests = [
        random_request(rng, query_id, capacity, initial_bus=query_id % 2)
        for query_id in range(batch)
    ]
    executor = FatTreeExecutor(capacity, data)
    summary, outputs = executor.run_pipelined_queries(requests)
    fast = executor._final_state
    monkeypatch.setattr(core_executor, "SparseState", DictSparseState)
    oracle_summary, oracle_outputs = executor.run_pipelined_queries(requests)
    oracle = executor._final_state
    assert isinstance(oracle, DictSparseState)

    assert_identical(fast, oracle)
    assert [list(o.items()) for o in outputs.values()] == [
        list(o.items()) for o in oracle_outputs.values()
    ]
    assert summary == oracle_summary
    for request in requests:
        assert executor.query_fidelity(
            request, outputs[request.query_id]
        ) == pytest.approx(1.0)


@pytest.mark.parametrize("capacity", [4, 8, 16])
def test_bb_queries_match_dict_oracle(capacity):
    rng = random.Random(capacity)
    data = [rng.randint(0, 1) for _ in range(capacity)]
    executor = BBExecutor(capacity, data)
    fast, oracle = SparseState(), DictSparseState()
    # Two sequential queries on one state: the second sees the first's
    # registers as spectators.
    for query in range(2):
        amps = random_request(rng, query, capacity).address_amplitudes
        executor.run_query(amps, query=query, state=fast, initial_bus=query)
        executor.run_query(amps, query=query, state=oracle, initial_bus=query)
        assert_identical(fast, oracle)
        assert list(executor.measured_output(fast, query).items()) == list(
            executor.measured_output(oracle, query).items()
        )
    assert executor.tree_is_clean(fast)


# ------------------------------------------------------- sparse versus dense
class RecordingState(SparseState):
    """A ``SparseState`` that logs every state-changing call, for replay."""

    def __init__(self, qubits=()):
        self.log = []
        super().__init__(qubits)

    def add_qubit(self, qubit, value=0):
        super().add_qubit(qubit, value)
        if value:
            self.log.append(("X", (qubit,), None))

    def prepare_superposition(self, qubits, amplitudes):
        super().prepare_superposition(qubits, amplitudes)
        self.log.append(("prepare", tuple(qubits), dict(amplitudes)))

    def apply_gate(self, gate, qubits, theta=None):
        super().apply_gate(gate, qubits, theta)
        self.log.append((gate, tuple(qubits), theta))


def dense_prepare(sim, qubits, amplitudes):
    """Put a fresh |0...0> register of ``sim`` into ``amplitudes``."""
    n, width = sim.num_qubits, len(qubits)
    axes = [sim.qubits.index(q) for q in qubits]
    front = list(range(width))
    tensor = np.moveaxis(sim.state.reshape([2] * n), axes, front)
    tensor = tensor.reshape(2**width, -1)
    assert np.allclose(tensor[1:], 0.0)
    register = np.zeros(2**width, dtype=complex)
    for value, amp in amplitudes.items():
        register[value] = amp
    register /= np.linalg.norm(register)
    prepared = np.outer(register, tensor[0]).reshape([2] * n)
    sim.set_state(np.moveaxis(prepared, front, axes).reshape(-1))


def assert_matches_dense(state):
    dense = StatevectorSimulator(state.qubits)
    for gate, qubits, arg in state.log:
        if gate == "prepare":
            dense_prepare(dense, qubits, arg)
        else:
            dense.apply_gate(gate, qubits, theta=arg)
    assert np.allclose(state.to_statevector(), dense.state, atol=1e-10)


@pytest.mark.parametrize("capacity, qubits", [(2, 8), (4, 20)])
def test_fat_tree_window_matches_dense(monkeypatch, capacity, qubits):
    rng = random.Random(capacity)
    data = [rng.randint(0, 1) for _ in range(capacity)]
    requests = [random_request(rng, query_id, capacity) for query_id in range(2)]
    monkeypatch.setattr(core_executor, "SparseState", RecordingState)
    executor = FatTreeExecutor(capacity, data)
    executor.run_pipelined_queries(requests)
    state = executor._final_state
    assert state.num_qubits == qubits
    assert_matches_dense(state)


@pytest.mark.parametrize("capacity, qubits", [(2, 6), (4, 15)])
def test_bb_query_matches_dense(capacity, qubits):
    rng = random.Random(capacity)
    data = [rng.randint(0, 1) for _ in range(capacity)]
    amps = random_request(rng, 0, capacity).address_amplitudes
    state = BBExecutor(capacity, data).run_query(
        amps, state=RecordingState(), initial_bus=1
    )
    assert state.num_qubits == qubits
    assert_matches_dense(state)
