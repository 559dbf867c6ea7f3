"""Dict-of-tuples sparse simulator: the reference for ``repro.sim.sparse``.

This is the original ``SparseState``: a dictionary mapping computational
basis assignments (tuples of bits over a fixed qubit ordering) to complex
amplitudes, rebuilt gate by gate in Python.  It is slow but obviously
correct, and ``tests/test_sim_sparse_differential.py`` checks that the
production bit-matrix simulator reproduces it exactly: the same ``items()``
keys in the same order, bit-identical amplitudes and the same
``register_amplitudes``.

Two behaviours are shared with the production simulator by construction:
``prepare_superposition`` prunes sub-threshold terms before returning, and
``register_amplitudes`` picks its reference branch among insertion-ordered
candidates, so weight ties go to the first term.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.sim.circuit import Circuit, Operation
from repro.sim.gates import GATES

Qubit = Hashable
Basis = tuple[int, ...]

_ATOL = 1e-12


class SparseState:
    """A pure state stored as a sparse map from basis states to amplitudes.

    Args:
        qubits: ordered list of qubit labels.  Additional qubits can be added
            later with :meth:`add_qubit`, initialised to |0>.
    """

    def __init__(self, qubits: Sequence[Qubit] = ()) -> None:
        self._qubits: list[Qubit] = []
        self._index: dict[Qubit, int] = {}
        self._amplitudes: dict[Basis, complex] = {(): 1.0 + 0.0j}
        self.classical: dict[str, int] = {}
        for q in qubits:
            self.add_qubit(q)

    # ------------------------------------------------------------------ state
    @property
    def qubits(self) -> list[Qubit]:
        """Qubit labels in index order."""
        return list(self._qubits)

    @property
    def num_qubits(self) -> int:
        return len(self._qubits)

    @property
    def num_terms(self) -> int:
        """Number of nonzero basis states (sparsity)."""
        return len(self._amplitudes)

    def add_qubit(self, qubit: Qubit, value: int = 0) -> None:
        """Add a new qubit initialised to ``|value>``."""
        if qubit in self._index:
            raise ValueError(f"qubit {qubit!r} already exists")
        if value not in (0, 1):
            raise ValueError("qubit value must be 0 or 1")
        self._index[qubit] = len(self._qubits)
        self._qubits.append(qubit)
        self._amplitudes = {
            basis + (value,): amp for basis, amp in self._amplitudes.items()
        }

    def ensure_qubits(self, qubits: Iterable[Qubit]) -> None:
        """Add any of ``qubits`` that do not exist yet (initialised to |0>)."""
        for q in qubits:
            if q not in self._index:
                self.add_qubit(q)

    def amplitudes(self) -> dict[Basis, complex]:
        """Copy of the amplitude map."""
        return dict(self._amplitudes)

    def items(self) -> Iterable[tuple[Basis, complex]]:
        return self._amplitudes.items()

    def norm(self) -> float:
        """2-norm of the state (should always be ~1)."""
        return math.sqrt(sum(abs(a) ** 2 for a in self._amplitudes.values()))

    def _prune(self) -> None:
        self._amplitudes = {
            b: a for b, a in self._amplitudes.items() if abs(a) > _ATOL
        }

    # ------------------------------------------------------------ preparation
    def set_register(self, qubits: Sequence[Qubit], value: int) -> None:
        """Classically set a register (must currently be unentangled |0...0>).

        ``qubits[0]`` is the most significant bit of ``value``.
        """
        self.ensure_qubits(qubits)
        bits = _int_to_bits(value, len(qubits))
        for q, bit in zip(qubits, bits):
            if bit:
                self.apply_gate("X", (q,))

    def prepare_superposition(
        self, qubits: Sequence[Qubit], amplitudes: Mapping[int, complex]
    ) -> None:
        """Prepare an arbitrary superposition over a register of fresh qubits.

        The register must be in |0...0> and unentangled with the rest of the
        state (true at preparation time in all uses here).

        Args:
            qubits: register labels, most significant bit first.
            amplitudes: map from integer basis value to amplitude.  Normalised
                automatically.
        """
        self.ensure_qubits(qubits)
        norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values()))
        if norm < _ATOL:
            raise ValueError("cannot prepare the zero vector")
        idx = [self._index[q] for q in qubits]
        for basis in self._amplitudes:
            for i in idx:
                if basis[i] != 0:
                    raise ValueError("register must be |0...0> before preparation")
        new_amps: dict[Basis, complex] = {}
        width = len(qubits)
        for basis, amp in self._amplitudes.items():
            for value, a in amplitudes.items():
                if abs(a) < _ATOL:
                    continue
                bits = _int_to_bits(value, width)
                new_basis = list(basis)
                for i, bit in zip(idx, bits):
                    new_basis[i] = bit
                new_amps[tuple(new_basis)] = amp * (a / norm)
        self._amplitudes = new_amps
        self._prune()

    # -------------------------------------------------------------- gate application
    def apply_gate(
        self,
        gate: str,
        qubits: Sequence[Qubit],
        theta: float | None = None,
    ) -> None:
        """Apply a gate by name to the given qubits."""
        key = gate.upper()
        if key not in GATES:
            raise ValueError(f"unknown gate {gate!r}")
        spec = GATES[key]
        if len(qubits) != spec.n_qubits:
            raise ValueError(
                f"gate {key} expects {spec.n_qubits} qubits, got {len(qubits)}"
            )
        self.ensure_qubits(qubits)
        idx = [self._index[q] for q in qubits]

        if spec.is_permutation:
            self._apply_permutation(spec, idx)
        elif key == "H":
            self._apply_single_qubit_matrix(_H_MATRIX, idx[0])
        elif key == "Z":
            self._apply_phase(idx[0], on_one=-1.0 + 0j)
        elif key == "S":
            self._apply_phase(idx[0], on_one=1j)
        elif key == "T":
            self._apply_phase(idx[0], on_one=cmath.exp(1j * math.pi / 4))
        elif key == "Y":
            self._apply_single_qubit_matrix(
                np.array([[0, -1j], [1j, 0]], dtype=complex), idx[0]
            )
        elif key == "RY":
            if theta is None:
                raise ValueError("RY requires theta")
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            self._apply_single_qubit_matrix(
                np.array([[c, -s], [s, c]], dtype=complex), idx[0]
            )
        elif key == "RZ":
            if theta is None:
                raise ValueError("RZ requires theta")
            self._apply_diag(
                idx[0], cmath.exp(-1j * theta / 2), cmath.exp(1j * theta / 2)
            )
        elif key == "CZ":
            self._apply_cz(idx[0], idx[1])
        else:  # pragma: no cover - defensive, all gates covered above
            raise ValueError(f"gate {key} not supported by SparseState")

    def _apply_permutation(self, spec, idx: list[int]) -> None:
        new_amps: dict[Basis, complex] = {}
        for basis, amp in self._amplitudes.items():
            bits = tuple(basis[i] for i in idx)
            new_bits = spec.permute_bits(bits)
            if new_bits == bits:
                new_amps[basis] = new_amps.get(basis, 0.0) + amp
                continue
            new_basis = list(basis)
            for i, bit in zip(idx, new_bits):
                new_basis[i] = bit
            key = tuple(new_basis)
            new_amps[key] = new_amps.get(key, 0.0) + amp
        self._amplitudes = new_amps
        self._prune()

    def _apply_single_qubit_matrix(self, matrix: np.ndarray, index: int) -> None:
        new_amps: dict[Basis, complex] = {}
        for basis, amp in self._amplitudes.items():
            bit = basis[index]
            for new_bit in (0, 1):
                coeff = matrix[new_bit, bit]
                if abs(coeff) < _ATOL:
                    continue
                new_basis = list(basis)
                new_basis[index] = new_bit
                key = tuple(new_basis)
                new_amps[key] = new_amps.get(key, 0.0) + coeff * amp
        self._amplitudes = new_amps
        self._prune()

    def _apply_phase(self, index: int, on_one: complex) -> None:
        self._apply_diag(index, 1.0 + 0j, on_one)

    def _apply_diag(self, index: int, on_zero: complex, on_one: complex) -> None:
        self._amplitudes = {
            basis: amp * (on_one if basis[index] else on_zero)
            for basis, amp in self._amplitudes.items()
        }
        self._prune()

    def _apply_cz(self, control: int, target: int) -> None:
        self._amplitudes = {
            basis: (-amp if basis[control] and basis[target] else amp)
            for basis, amp in self._amplitudes.items()
        }

    # ---------------------------------------------------------------- circuits
    def run(self, circuit: Circuit) -> None:
        """Run a :class:`Circuit`, honouring classical conditions."""
        for op in circuit:
            self.apply_operation(op)

    def apply_operation(self, op: Operation) -> None:
        """Apply a single circuit operation (with classical condition)."""
        if op.condition is not None:
            register, value = op.condition
            if self.classical.get(register, 0) != value:
                return
        self.apply_gate(op.gate, op.qubits, theta=op.theta)

    # ------------------------------------------------------------- inspection
    def probability(self, assignment: Mapping[Qubit, int]) -> float:
        """Total probability of all basis states consistent with ``assignment``."""
        idx = [(self._index[q], v) for q, v in assignment.items()]
        total = 0.0
        for basis, amp in self._amplitudes.items():
            if all(basis[i] == v for i, v in idx):
                total += abs(amp) ** 2
        return total

    def marginal_distribution(
        self, qubits: Sequence[Qubit]
    ) -> dict[int, float]:
        """Probability distribution over a register (MSB first)."""
        idx = [self._index[q] for q in qubits]
        dist: dict[int, float] = {}
        for basis, amp in self._amplitudes.items():
            value = _bits_to_int(tuple(basis[i] for i in idx))
            dist[value] = dist.get(value, 0.0) + abs(amp) ** 2
        return dist

    def register_amplitudes(self, qubits: Sequence[Qubit]) -> dict[int, complex]:
        """Amplitudes over a register that is in a product state with the rest.

        The register may be in superposition and the *rest* of the system may
        also be in superposition, as long as the overall state factorises as
        ``|register> (x) |rest>``.  The returned amplitudes are normalised and
        carry the phase of the reference branch of the rest: the branch with
        the largest total weight, ties going to the branch of the earliest
        term in :meth:`items` order.

        Raises:
            ValueError: if the register is genuinely entangled with the rest.
        """
        idx = [self._index[q] for q in qubits]
        others = [i for i in range(len(self._qubits)) if i not in idx]

        # Group amplitudes into a (register value, rest value) matrix.
        matrix: dict[tuple[int, Basis], complex] = {}
        register_values: dict[int, None] = {}
        rest_values: dict[Basis, None] = {}
        for basis, amp in self._amplitudes.items():
            reg = _bits_to_int(tuple(basis[i] for i in idx))
            rest = tuple(basis[i] for i in others)
            matrix[(reg, rest)] = matrix.get((reg, rest), 0.0) + complex(amp)
            register_values[reg] = None
            rest_values[rest] = None

        # Reference rest branch: the one with the largest total weight; ties
        # go to the branch of the earliest term.
        reference = max(
            rest_values,
            key=lambda rest: sum(
                abs(matrix.get((reg, rest), 0.0)) ** 2 for reg in register_values
            ),
        )
        column = {
            reg: matrix.get((reg, reference), 0.0) for reg in register_values
        }
        norm = math.sqrt(sum(abs(a) ** 2 for a in column.values()))
        if norm < _ATOL:
            raise ValueError("register has no support on the reference branch")
        column = {reg: amp / norm for reg, amp in column.items() if abs(amp) > _ATOL}

        # Rank-1 (product) check including phases: for every entry,
        # amp(reg, rest) * amp(reg0, ref) == amp(reg, ref) * amp(reg0, rest).
        reg0 = max(column, key=lambda reg: abs(column[reg]))
        pivot = matrix.get((reg0, reference), 0.0)
        for rest in rest_values:
            scale = matrix.get((reg0, rest), 0.0)
            for reg in register_values:
                lhs = matrix.get((reg, rest), 0.0) * pivot
                rhs = matrix.get((reg, reference), 0.0) * scale
                if abs(lhs - rhs) > 1e-8:
                    raise ValueError(
                        "register is entangled with the rest of the state"
                    )
        return column

    def expectation_of_assignment(self, qubit: Qubit) -> float:
        """<Z-basis value> of a single qubit (probability of measuring 1)."""
        return self.probability({qubit: 1})

    def qubit_values(self) -> dict[Qubit, int] | None:
        """If every qubit has a definite value, return the assignment, else None."""
        if len(self._amplitudes) != 1:
            # Qubits may still be definite across branches.
            values: dict[Qubit, int] = {}
            for i, q in enumerate(self._qubits):
                vals = {b[i] for b in self._amplitudes}
                if len(vals) != 1:
                    return None
                values[q] = vals.pop()
            return values
        basis = next(iter(self._amplitudes))
        return {q: basis[i] for i, q in enumerate(self._qubits)}

    def fidelity_with(self, other: "SparseState") -> float:
        """|<self|other>|^2 over the union of qubit labels (missing = |0>)."""
        labels = list(dict.fromkeys(self._qubits + other._qubits))
        a = self._expand_to(labels)
        b = other._expand_to(labels)
        overlap = 0.0 + 0.0j
        for basis, amp in a.items():
            overlap += amp.conjugate() * b.get(basis, 0.0)
        return abs(overlap) ** 2

    def _expand_to(self, labels: Sequence[Qubit]) -> dict[Basis, complex]:
        positions = {q: i for i, q in enumerate(labels)}
        out: dict[Basis, complex] = {}
        for basis, amp in self._amplitudes.items():
            new_basis = [0] * len(labels)
            for q, bit in zip(self._qubits, basis):
                new_basis[positions[q]] = bit
            out[tuple(new_basis)] = amp
        return out

    def to_statevector(self, order: Sequence[Qubit] | None = None) -> np.ndarray:
        """Dense statevector over the given qubit order (default: index order).

        Only practical for small qubit counts; used to cross-check against the
        dense simulator.
        """
        order = list(order) if order is not None else list(self._qubits)
        if set(order) != set(self._qubits):
            raise ValueError("order must be a permutation of the state's qubits")
        n = len(order)
        vec = np.zeros(2**n, dtype=complex)
        positions = [self._index[q] for q in order]
        for basis, amp in self._amplitudes.items():
            bits = tuple(basis[i] for i in positions)
            vec[_bits_to_int(bits)] = amp
        return vec


def _int_to_bits(value: int, width: int) -> tuple[int, ...]:
    if value < 0 or value >= 2**width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def _bits_to_int(bits: Sequence[int]) -> int:
    out = 0
    for bit in bits:
        out = (out << 1) | bit
    return out


_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
