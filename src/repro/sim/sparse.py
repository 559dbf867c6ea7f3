"""Sparse basis-state simulator over a bit matrix.

The state is the list of computational basis terms with nonzero amplitude,
held as three arrays:

* a ``uint8`` bit matrix with one row per term and one *physical* column per
  qubit, stored column-major so each qubit's bits are one contiguous array;
* a ``complex128`` amplitude vector aligned with the rows; and
* a map from qubit label to physical column.  Logical qubit order (the order
  of :attr:`SparseState.qubits` and of every basis tuple) never changes.

Permutation gates (X, CX, CCX, SWAP, CSWAP, ...) never increase the number of
terms; superposition-creating gates (H, RY) at most double it.  A QRAM query
over an address register in an ``m``-branch superposition therefore stays at
``m`` terms throughout the routing circuit, no matter how many router qubits
exist — this is exactly the "limited entanglement among different paths"
property the paper relies on for noise resilience, reused here for exact
simulation.

Every gate acts on whole columns at once:

* SWAP is a relabel: it exchanges two entries of the column map in O(1) and
  touches no term.
* X, CX, CCX, CSWAP and ANTI_CSWAP are masked XORs over columns.
* Z, S and CZ select a sign or phase per term.  T and RZ multiply term by
  term in Python scalars, so their rounding matches scalar code exactly.
* H, Y and RY emit each term's successors (new bit 0, then 1) and merge equal
  rows by first occurrence, so the term order and the summation order of
  every amplitude are those of a dict rebuilt term by term (the reference
  simulator in ``tests/oracles/sparse_dict.py``).

Terms with ``|amplitude| <= 1e-12`` are pruned after every gate that can
produce one (the merging gates and the single-qubit phases) and at the end of
:meth:`SparseState.prepare_superposition`.  No other operation creates such a
term, and permutation gates and CZ leave every magnitude unchanged, so they
skip the pruning pass.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.sim.circuit import Circuit, Operation
from repro.sim.gates import GATES, check_distinct_qubits

Qubit = Hashable
Basis = tuple[int, ...]

_ATOL = 1e-12
#: Physical columns allocated up front; the bit matrix doubles when full.
_INITIAL_COLUMNS = 8


class SparseState:
    """A pure state stored as a sparse list of basis states and amplitudes.

    Args:
        qubits: ordered list of qubit labels.  Additional qubits can be added
            later with :meth:`add_qubit`, initialised to |0>.
    """

    def __init__(self, qubits: Sequence[Qubit] = ()) -> None:
        self._qubits: list[Qubit] = []
        self._column: dict[Qubit, int] = {}
        self._bits = np.zeros((1, _INITIAL_COLUMNS), dtype=np.uint8, order="F")
        self._amps = np.ones(1, dtype=complex)
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
        return self._amps.shape[0]

    def add_qubit(self, qubit: Qubit, value: int = 0) -> None:
        """Add a new qubit initialised to ``|value>``."""
        if qubit in self._column:
            raise ValueError(f"qubit {qubit!r} already exists")
        if value not in (0, 1):
            raise ValueError("qubit value must be 0 or 1")
        column = len(self._qubits)
        if column == self._bits.shape[1]:
            grown = np.zeros(
                (self._bits.shape[0], 2 * column), dtype=np.uint8, order="F"
            )
            grown[:, :column] = self._bits
            self._bits = grown
        self._bits[:, column] = value
        self._column[qubit] = column
        self._qubits.append(qubit)

    def ensure_qubits(self, qubits: Iterable[Qubit]) -> None:
        """Add any of ``qubits`` that do not exist yet (initialised to |0>)."""
        for q in qubits:
            if q not in self._column:
                self.add_qubit(q)

    def amplitudes(self) -> dict[Basis, complex]:
        """Copy of the amplitude map."""
        return dict(self.items())

    def items(self) -> Iterable[tuple[Basis, complex]]:
        """``(basis, amplitude)`` pairs; bases follow :attr:`qubits` order."""
        rows = self._bits[:, self._columns(self._qubits)].tolist()
        return list(zip(map(tuple, rows), self._amps.tolist()))

    def norm(self) -> float:
        """2-norm of the state (should always be ~1)."""
        return float(np.linalg.norm(self._amps))

    def _columns(self, qubits: Iterable[Qubit]) -> list[int]:
        return [self._column[q] for q in qubits]

    def _set_terms(self, bits: np.ndarray, amps: np.ndarray) -> None:
        self._bits = np.asfortranarray(bits)
        self._amps = amps

    def _prune(self) -> None:
        keep = np.abs(self._amps) > _ATOL
        if not keep.all():
            self._set_terms(self._bits[keep], self._amps[keep])

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
        columns = self._columns(qubits)
        if self._bits[:, columns].any():
            raise ValueError("register must be |0...0> before preparation")
        width = len(qubits)
        branches = [
            (_int_to_bits(value, width), a / norm)
            for value, a in amplitudes.items()
            if abs(a) >= _ATOL
        ]
        # Term-major, branch-minor: each old term fans out over the branches.
        bits = np.repeat(self._bits, len(branches), axis=0)
        register = np.array([b for b, _ in branches], dtype=np.uint8)
        register = register.reshape(len(branches), width)
        bits[:, columns] = np.tile(register, (self.num_terms, 1))
        amps = [amp * factor for amp in self._amps.tolist() for _, factor in branches]
        self._set_terms(bits, np.array(amps, dtype=complex).reshape(-1))
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
        spec = GATES.get(key)
        if spec is None:
            raise ValueError(f"unknown gate {gate!r}")
        if len(qubits) != spec.n_qubits:
            raise ValueError(
                f"gate {key} expects {spec.n_qubits} qubits, got {len(qubits)}"
            )
        if spec.n_qubits > 1:
            check_distinct_qubits(key, qubits)
        self.ensure_qubits(qubits)

        if key == "SWAP":
            a, b = qubits
            self._column[a], self._column[b] = self._column[b], self._column[a]
            return
        columns = self._columns(qubits)
        permutation = _PERMUTATIONS.get(key)
        if permutation is not None:
            permutation(self._bits, *columns)
        elif key == "H":
            self._apply_single_qubit_matrix(_H_MATRIX, columns[0])
        elif key == "Z":
            self._apply_sign(self._bits[:, columns[0]], -1.0)
        elif key == "S":
            self._apply_sign(self._bits[:, columns[0]], 1j)
        elif key == "T":
            self._apply_diag(columns[0], 1.0 + 0j, cmath.exp(1j * math.pi / 4))
        elif key == "Y":
            self._apply_single_qubit_matrix(_Y_MATRIX, columns[0])
        elif key == "RY":
            if theta is None:
                raise ValueError("RY requires theta")
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            self._apply_single_qubit_matrix(
                np.array([[c, -s], [s, c]], dtype=complex), columns[0]
            )
        elif key == "RZ":
            if theta is None:
                raise ValueError("RZ requires theta")
            self._apply_diag(
                columns[0], cmath.exp(-1j * theta / 2), cmath.exp(1j * theta / 2)
            )
        elif key == "CZ":
            self._apply_sign(
                self._bits[:, columns[0]] & self._bits[:, columns[1]], -1.0
            )
        else:  # pragma: no cover - defensive, all gates covered above
            raise ValueError(f"gate {key} not supported by SparseState")

    def _apply_single_qubit_matrix(self, matrix: np.ndarray, column: int) -> None:
        bit = self._bits[:, column]
        # coeff[i, new_bit] = matrix[new_bit, bit_i]; nonzero entries in
        # row-major order are the successors in term order, new bit 0 first.
        coeff = matrix.T[bit]
        source, new_bit = np.nonzero(np.abs(coeff) >= _ATOL)
        contributions = coeff[source, new_bit] * self._amps[source]
        rows = self._bits[source]
        rows[:, column] = new_bit
        # Merge equal rows, numbering the merged terms by first occurrence.
        keys = _row_keys(rows[:, : len(self._qubits)])
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        amps = np.zeros(order.shape[0], dtype=complex)
        np.add.at(amps, rank[inverse.reshape(-1)], contributions)
        self._set_terms(rows[first[order]], amps)
        self._prune()

    def _apply_sign(self, mask: np.ndarray, factor: complex) -> None:
        """Multiply the amplitudes of the terms where ``mask`` is set."""
        self._amps = np.where(mask.view(bool), self._amps * factor, self._amps)

    def _apply_diag(self, column: int, on_zero: complex, on_one: complex) -> None:
        bits = self._bits[:, column].tolist()
        self._amps = np.array(
            [
                amp * (on_one if bit else on_zero)
                for amp, bit in zip(self._amps.tolist(), bits)
            ],
            dtype=complex,
        ).reshape(-1)
        self._prune()

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
        match = np.ones(self.num_terms, dtype=bool)
        for q, v in assignment.items():
            match &= self._bits[:, self._column[q]] == v
        return sum(abs(amp) ** 2 for amp in self._amps[match].tolist())

    def marginal_distribution(
        self, qubits: Sequence[Qubit]
    ) -> dict[int, float]:
        """Probability distribution over a register (MSB first)."""
        rows = self._bits[:, self._columns(qubits)].tolist()
        dist: dict[int, float] = {}
        for row, amp in zip(rows, self._amps.tolist()):
            value = _bits_to_int(row)
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
        columns = self._columns(qubits)
        others = sorted(set(range(len(self._qubits))) - set(columns))
        regs = [_bits_to_int(row) for row in self._bits[:, columns].tolist()]
        # Rest branches keyed by their packed bits (equal iff the bits are).
        rests = _row_keys(self._bits[:, others]).tolist()

        # Group amplitudes into a (register value, rest value) matrix.
        matrix: dict[tuple[int, bytes], complex] = {}
        register_values: dict[int, None] = {}
        rest_values: dict[bytes, None] = {}
        for reg, rest, amp in zip(regs, rests, self._amps.tolist()):
            matrix[(reg, rest)] = matrix.get((reg, rest), 0.0) + amp
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
        if self.num_terms == 0:
            return None if self._qubits else {}
        rows = self._bits[:, self._columns(self._qubits)]
        if (rows != rows[0]).any():
            return None
        return dict(zip(self._qubits, rows[0].tolist()))

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
        for basis, amp in self.items():
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
        weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
        vec[self._bits[:, self._columns(order)].astype(np.int64) @ weights] = (
            self._amps
        )
        return vec


# Permutation gates as in-place XORs over the columns of the bit matrix.
def _apply_x(bits: np.ndarray, target: int) -> None:
    column = bits[:, target]
    column ^= 1


def _apply_cx(bits: np.ndarray, control: int, target: int) -> None:
    column = bits[:, target]
    column ^= bits[:, control]


def _apply_ccx(bits: np.ndarray, control1: int, control2: int, target: int) -> None:
    column = bits[:, target]
    column ^= bits[:, control1] & bits[:, control2]


def _swap_where(bits: np.ndarray, fire: np.ndarray, a: int, b: int) -> None:
    col_a, col_b = bits[:, a], bits[:, b]
    diff = col_a ^ col_b
    diff &= fire
    col_a ^= diff
    col_b ^= diff


def _apply_cswap(bits: np.ndarray, control: int, a: int, b: int) -> None:
    _swap_where(bits, bits[:, control], a, b)


def _apply_anti_cswap(bits: np.ndarray, control: int, a: int, b: int) -> None:
    _swap_where(bits, bits[:, control] ^ 1, a, b)


_PERMUTATIONS: dict[str, Callable[..., None]] = {
    "I": lambda bits, target: None,
    "X": _apply_x,
    "CX": _apply_cx,
    "CCX": _apply_ccx,
    "CSWAP": _apply_cswap,
    "ANTI_CSWAP": _apply_anti_cswap,
}


def _row_keys(bits: np.ndarray) -> np.ndarray:
    """One opaque key per row of a bit matrix, equal iff the rows are."""
    packed = np.packbits(bits, axis=1)
    if packed.shape[1] == 0:
        packed = np.zeros((bits.shape[0], 1), dtype=np.uint8)
    packed = np.ascontiguousarray(packed)
    return packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]


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
_Y_MATRIX = np.array([[0, -1j], [1j, 0]], dtype=complex)
