"""Small density-matrix simulator with per-gate noise.

This simulator is intentionally limited to a handful of qubits; it exists to
(1) sanity-check the analytic query-fidelity bounds of Sec. 8 on tiny QRAM
instances and (2) implement virtual distillation (Sec. 8.2) exactly on small
states.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

import numpy as np

from repro.sim.circuit import Circuit, Operation
from repro.sim.gates import check_distinct_qubits, gate_unitary
from repro.sim.noise import NoiseChannel

Qubit = Hashable

_MAX_QUBITS = 12


class DensityMatrixSimulator:
    """Density-matrix simulation over named qubits with optional gate noise.

    Args:
        qubits: qubit labels (at most 12; the 4^n memory cost is real).
        gate_noise: channel applied to every qubit touched by a gate, after
            the gate.  ``None`` disables noise.
    """

    def __init__(
        self,
        qubits: Sequence[Qubit],
        gate_noise: NoiseChannel | None = None,
    ) -> None:
        if len(qubits) > _MAX_QUBITS:
            raise ValueError(
                f"density-matrix simulation limited to {_MAX_QUBITS} qubits, "
                f"got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit labels")
        self._qubits = list(qubits)
        self._index = {q: i for i, q in enumerate(self._qubits)}
        dim = 2 ** len(self._qubits)
        self._rho = np.zeros((dim, dim), dtype=complex)
        self._rho[0, 0] = 1.0
        self.gate_noise = gate_noise
        self.classical: dict[str, int] = {}

    @property
    def qubits(self) -> list[Qubit]:
        return list(self._qubits)

    @property
    def num_qubits(self) -> int:
        return len(self._qubits)

    @property
    def density_matrix(self) -> np.ndarray:
        """Copy of the current density matrix."""
        return self._rho.copy()

    def set_density_matrix(self, rho: np.ndarray) -> None:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != self._rho.shape:
            raise ValueError("density matrix has the wrong dimension")
        if not np.isclose(np.trace(rho).real, 1.0, atol=1e-8):
            raise ValueError("density matrix must have unit trace")
        self._rho = rho.copy()

    def set_statevector(self, vector: np.ndarray) -> None:
        """Initialise from a pure statevector."""
        vector = np.asarray(vector, dtype=complex).reshape(-1)
        if vector.shape[0] != self._rho.shape[0]:
            raise ValueError("statevector has the wrong dimension")
        self._rho = np.outer(vector, vector.conj())

    # ------------------------------------------------------------------ gates
    def apply_gate(
        self, gate: str, qubits: Sequence[Qubit], theta: float | None = None
    ) -> None:
        check_distinct_qubits(gate, qubits)
        matrix = gate_unitary(gate, theta)
        full = self._expand(matrix, [self._index[q] for q in qubits])
        self._rho = full @ self._rho @ full.conj().T
        if self.gate_noise is not None:
            for q in qubits:
                self.apply_channel(self.gate_noise, q)

    def apply_operation(self, op: Operation) -> None:
        if op.condition is not None:
            register, value = op.condition
            if self.classical.get(register, 0) != value:
                return
        self.apply_gate(op.gate, op.qubits, theta=op.theta)

    def run(self, circuit: Circuit) -> None:
        for op in circuit:
            self.apply_operation(op)

    def apply_channel(self, channel: NoiseChannel, qubit: Qubit) -> None:
        """Apply a single-qubit noise channel to ``qubit``."""
        if channel.dim != 2:
            raise ValueError("only single-qubit channels are supported here")
        out = np.zeros_like(self._rho)
        for kraus in channel.kraus:
            full = self._expand(kraus, [self._index[qubit]])
            out += full @ self._rho @ full.conj().T
        self._rho = out

    def _expand(self, matrix: np.ndarray, targets: list[int]) -> np.ndarray:
        """Expand an operator on ``targets`` to the full Hilbert space."""
        n = self.num_qubits
        k = len(targets)
        dim = 2**n
        full = np.zeros((dim, dim), dtype=complex)
        others = [i for i in range(n) if i not in targets]
        target_shifts = [n - 1 - t for t in targets]
        other_shifts = [n - 1 - o for o in others]

        for col in range(dim):
            t_in = 0
            for shift in target_shifts:
                t_in = (t_in << 1) | ((col >> shift) & 1)
            base = col
            for shift in target_shifts:
                base &= ~(1 << shift)
            for t_out in range(2**k):
                coeff = matrix[t_out, t_in]
                if abs(coeff) < 1e-15:
                    continue
                row = base
                for pos, shift in enumerate(target_shifts):
                    bit = (t_out >> (k - 1 - pos)) & 1
                    row |= bit << shift
                full[row, col] += coeff
        # other_shifts intentionally unused beyond documentation of layout
        del other_shifts
        return full

    # ------------------------------------------------------------- inspection
    def fidelity_with_state(self, vector: np.ndarray) -> float:
        """<psi| rho |psi> against a pure target state."""
        vector = np.asarray(vector, dtype=complex).reshape(-1)
        return float(np.real(vector.conj() @ self._rho @ vector))

    def purity(self) -> float:
        """Tr(rho^2)."""
        return float(np.real(np.trace(self._rho @ self._rho)))

    def probability(self, assignment: Mapping[Qubit, int]) -> float:
        """Probability of a partial computational-basis assignment."""
        n = self.num_qubits
        mask = 0
        want = 0
        for q, v in assignment.items():
            bit = 1 << (n - 1 - self._index[q])
            mask |= bit
            if v:
                want |= bit
        probs = np.real(np.diag(self._rho))
        return float(
            sum(p for i, p in enumerate(probs) if (i & mask) == want)
        )
