"""Unit and property tests for the sparse basis-state simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.sparse_dict import SparseState as DictSparseState
from repro.sim.circuit import Circuit
from repro.sim.sparse import SparseState
from repro.sim.statevector import StatevectorSimulator


def test_single_qubit_gates_match_statevector():
    circuit = Circuit()
    circuit.append("H", ["a"])
    circuit.append("T", ["a"])
    circuit.append("H", ["b"])
    circuit.append("CX", ["a", "b"])
    circuit.append("Z", ["b"])
    sparse = SparseState(["a", "b"])
    sparse.run(circuit)
    dense = StatevectorSimulator(["a", "b"])
    dense.run(circuit)
    assert np.allclose(sparse.to_statevector(["a", "b"]), dense.state, atol=1e-12)


def test_permutation_gates_preserve_term_count():
    state = SparseState(["a", "b", "c"])
    state.prepare_superposition(["a", "b"], {0: 1, 1: 1, 2: 1, 3: 1})
    before = state.num_terms
    state.apply_gate("CSWAP", ["a", "b", "c"])
    state.apply_gate("SWAP", ["b", "c"])
    state.apply_gate("CX", ["a", "c"])
    assert state.num_terms == before
    assert math.isclose(state.norm(), 1.0, abs_tol=1e-12)


def test_prepare_superposition_normalises():
    state = SparseState()
    state.prepare_superposition(["x0", "x1"], {0: 3, 3: 4})
    dist = state.marginal_distribution(["x0", "x1"])
    assert math.isclose(dist[0], 9 / 25, abs_tol=1e-12)
    assert math.isclose(dist[3], 16 / 25, abs_tol=1e-12)


def test_prepare_superposition_requires_fresh_register():
    state = SparseState(["x"])
    state.apply_gate("X", ["x"])
    with pytest.raises(ValueError):
        state.prepare_superposition(["x"], {0: 1, 1: 1})


def test_register_amplitudes_product_state():
    state = SparseState()
    state.prepare_superposition(["a0", "a1"], {0: 1, 3: 1})
    state.prepare_superposition(["b0"], {0: 1, 1: -1})
    amps = state.register_amplitudes(["a0", "a1"])
    assert set(amps) == {0, 3}
    assert math.isclose(abs(amps[0]), 1 / math.sqrt(2), abs_tol=1e-9)


def test_register_amplitudes_detects_entanglement():
    state = SparseState(["a", "b"])
    state.apply_gate("H", ["a"])
    state.apply_gate("CX", ["a", "b"])
    with pytest.raises(ValueError):
        state.register_amplitudes(["a"])


def test_register_amplitudes_detects_phase_entanglement():
    state = SparseState(["a", "b"])
    state.apply_gate("H", ["a"])
    state.apply_gate("H", ["b"])
    state.apply_gate("CZ", ["a", "b"])
    with pytest.raises(ValueError):
        state.register_amplitudes(["a"])


def test_fidelity_with_self_and_orthogonal():
    plus = SparseState(["q"])
    plus.apply_gate("H", ["q"])
    minus = SparseState(["q"])
    minus.apply_gate("X", ["q"])
    minus.apply_gate("H", ["q"])
    assert math.isclose(plus.fidelity_with(plus), 1.0, abs_tol=1e-12)
    assert math.isclose(plus.fidelity_with(minus), 0.0, abs_tol=1e-12)


def test_classical_condition_controls_operation():
    circuit = Circuit()
    circuit.append("X", ["q"], condition=("flag", 1))
    state = SparseState(["q"])
    state.classical["flag"] = 0
    state.run(circuit)
    assert state.probability({"q": 1}) == pytest.approx(0.0)
    state.classical["flag"] = 1
    state.run(circuit)
    assert state.probability({"q": 1}) == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(
    gates=st.lists(
        st.sampled_from(["X", "CX", "SWAP", "CSWAP", "CCX"]), min_size=1, max_size=20
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_random_permutation_circuits_preserve_norm_and_sparsity(gates, seed):
    """Permutation circuits never change the number of terms or the norm."""
    rng = np.random.default_rng(seed)
    qubits = [f"q{i}" for i in range(5)]
    state = SparseState(qubits)
    state.prepare_superposition(qubits[:2], {0: 1, 1: 1j, 2: -1})
    before_terms = state.num_terms
    for name in gates:
        arity = {"X": 1, "CX": 2, "SWAP": 2, "CSWAP": 3, "CCX": 3}[name]
        targets = rng.choice(len(qubits), size=arity, replace=False)
        state.apply_gate(name, [qubits[i] for i in targets])
    assert state.num_terms == before_terms
    assert math.isclose(state.norm(), 1.0, abs_tol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    value=st.integers(min_value=0, max_value=15),
)
def test_set_register_roundtrip(value):
    state = SparseState()
    qubits = [f"r{i}" for i in range(4)]
    state.set_register(qubits, value)
    assert state.marginal_distribution(qubits) == {value: pytest.approx(1.0)}


@pytest.mark.parametrize(
    "gate, qubits, repeated",
    [("CX", ["a", "a"], "a"), ("CSWAP", ["a", "a", "b"], "a"),
     ("CCX", ["a", "b", "b"], "b"), ("SWAP", ["b", "b"], "b")],
)
def test_gate_on_repeated_qubit_raises(gate, qubits, repeated):
    """A repeated qubit would apply a non-unitary map; it is rejected and
    the state is left as it was."""
    state = SparseState(["a", "b"])
    state.apply_gate("H", ["a"])
    state.apply_gate("X", ["b"])
    before = state.amplitudes()
    with pytest.raises(
        ValueError, match=f"gate {gate} acts on repeated qubit '{repeated}'"
    ):
        state.apply_gate(gate, qubits)
    assert state.amplitudes() == before
    assert math.isclose(state.norm(), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("state_class", [SparseState, DictSparseState])
def test_register_amplitudes_ties_go_to_the_first_term(state_class):
    """Two rest branches of equal weight: the phase reference is the branch
    of the earliest term, here b=1 carrying the phase i."""
    state = state_class()
    state.prepare_superposition(["a"], {0: 1, 1: 1})
    state.prepare_superposition(["b"], {1: 1j, 0: 1})
    assert [basis for basis, _ in state.items()][0] == (0, 1)
    assert state.probability({"b": 0}) == pytest.approx(0.5)
    amps = state.register_amplitudes(["a"])
    assert list(amps) == [0, 1]
    assert amps[0] == pytest.approx(1j / math.sqrt(2), abs=1e-15)
    assert amps[1] == pytest.approx(1j / math.sqrt(2), abs=1e-15)
