"""Dense state-vector simulator for small circuits (<= ~16 qubits).

Used for functional verification of the non-Clifford gadgets: the
8T-to-CCZ factory circuit, AutoCCZ teleportation, and small QROM instances.
Supports the full gate set of :mod:`repro.sim.circuit`; noise channels are
not sampled here (use the frame simulator), but explicit Pauli errors can be
inserted as gates.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.circuit import Circuit
from repro.sim.ops import ANNOTATIONS

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_S = np.diag([1, 1j]).astype(np.complex128)
_T = np.diag([1, np.exp(1j * math.pi / 4)]).astype(np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.diag([1, -1]).astype(np.complex128)

_ONE_QUBIT = {
    "H": _H,
    "S": _S,
    "S_DAG": _S.conj().T,
    "T": _T,
    "T_DAG": _T.conj().T,
    "X": _X,
    "Y": _Y,
    "Z": _Z,
}


class StateVector:
    """State vector on ``num_qubits`` qubits, initialized to |0...0>.

    Qubit 0 is the least-significant bit of the basis-state index.
    """

    def __init__(self, num_qubits: int, rng: Optional[np.random.Generator] = None) -> None:
        if num_qubits < 1 or num_qubits > 24:
            raise ValueError(f"num_qubits out of supported range: {num_qubits}")
        self.num_qubits = num_qubits
        self.amplitudes = np.zeros(2**num_qubits, dtype=np.complex128)
        self.amplitudes[0] = 1.0
        self.record: List[int] = []
        self._rng = rng if rng is not None else np.random.default_rng()

    # -- gate application --------------------------------------------------

    def apply_1q(self, matrix: np.ndarray, qubit: int) -> None:
        """Apply a 2x2 unitary to one qubit."""
        self._check_qubit(qubit)
        psi = self.amplitudes.reshape(-1, 2, 2**qubit)
        self.amplitudes = np.einsum("ab,ibj->iaj", matrix, psi).reshape(-1)

    def apply_cx(self, control: int, target: int) -> None:
        self._controlled_op(_X, [control], target)

    def apply_cz(self, control: int, target: int) -> None:
        self._controlled_op(_Z, [control], target)

    def apply_ccz(self, a: int, b: int, c: int) -> None:
        self._controlled_op(_Z, [a, b], c)

    def apply_ccx(self, a: int, b: int, target: int) -> None:
        self._controlled_op(_X, [a, b], target)

    def apply_swap(self, a: int, b: int) -> None:
        self.apply_cx(a, b)
        self.apply_cx(b, a)
        self.apply_cx(a, b)

    def _controlled_op(self, matrix: np.ndarray, controls: Sequence[int], target: int) -> None:
        for q in list(controls) + [target]:
            self._check_qubit(q)
        idx = np.arange(2**self.num_qubits)
        mask = np.ones_like(idx, dtype=bool)
        for c in controls:
            mask &= (idx >> c) & 1 == 1
        t0 = mask & ((idx >> target) & 1 == 0)
        i0 = idx[t0]
        i1 = i0 | (1 << target)
        a0 = self.amplitudes[i0].copy()
        a1 = self.amplitudes[i1].copy()
        self.amplitudes[i0] = matrix[0, 0] * a0 + matrix[0, 1] * a1
        self.amplitudes[i1] = matrix[1, 0] * a0 + matrix[1, 1] * a1

    # -- measurement/reset ---------------------------------------------------

    def probability_of_one(self, qubit: int) -> float:
        """Probability of reading 1 when measuring ``qubit`` in Z."""
        self._check_qubit(qubit)
        idx = np.arange(2**self.num_qubits)
        mask = (idx >> qubit) & 1 == 1
        return float(np.sum(np.abs(self.amplitudes[mask]) ** 2))

    def measure(self, qubit: int, forced: Optional[int] = None) -> int:
        """Projective Z measurement; optionally force an outcome (postselect).

        Forcing an outcome renormalizes; forcing a zero-probability outcome
        raises ``ValueError``.
        """
        p1 = self.probability_of_one(qubit)
        if forced is None:
            outcome = int(self._rng.random() < p1)
        else:
            outcome = int(forced)
        prob = p1 if outcome else 1.0 - p1
        if prob < 1e-12:
            raise ValueError(f"cannot project qubit {qubit} onto outcome {outcome}")
        idx = np.arange(2**self.num_qubits)
        keep = ((idx >> qubit) & 1) == outcome
        self.amplitudes[~keep] = 0.0
        self.amplitudes /= math.sqrt(prob)
        self.record.append(outcome)
        return outcome

    def measure_x(self, qubit: int, forced: Optional[int] = None) -> int:
        """Projective X measurement via H conjugation."""
        self.apply_1q(_H, qubit)
        outcome = self.measure(qubit, forced)
        self.apply_1q(_H, qubit)
        return outcome

    def reset(self, qubit: int) -> None:
        """Reset to |0> (measure, then flip if needed); not recorded."""
        p1 = self.probability_of_one(qubit)
        outcome = int(self._rng.random() < p1)
        prob = p1 if outcome else 1.0 - p1
        if prob < 1e-12:
            outcome = 1 - outcome
            prob = 1.0 - prob
        idx = np.arange(2**self.num_qubits)
        keep = ((idx >> qubit) & 1) == outcome
        self.amplitudes[~keep] = 0.0
        self.amplitudes /= math.sqrt(prob)
        if outcome == 1:
            self.apply_1q(_X, qubit)

    # -- circuit execution ---------------------------------------------------

    def run(self, circuit: Circuit, forced_measurements: Optional[Dict[int, int]] = None) -> None:
        """Execute a circuit (noise channels are rejected).

        Args:
            circuit: the circuit to run.
            forced_measurements: map from measurement-record index to forced
                outcome, for post-selected gadgets.
        """
        forced = forced_measurements or {}
        for op in circuit.operations:
            if op.name in _ONE_QUBIT:
                for q in op.targets:
                    self.apply_1q(_ONE_QUBIT[op.name], q)
            elif op.name == "CX":
                for c, t in _pairs(op.targets):
                    self.apply_cx(c, t)
            elif op.name == "CZ":
                for c, t in _pairs(op.targets):
                    self.apply_cz(c, t)
            elif op.name == "SWAP":
                for a, b in _pairs(op.targets):
                    self.apply_swap(a, b)
            elif op.name == "CCZ":
                for a, b, c in _triples(op.targets):
                    self.apply_ccz(a, b, c)
            elif op.name == "CCX":
                for a, b, c in _triples(op.targets):
                    self.apply_ccx(a, b, c)
            elif op.name == "R":
                for q in op.targets:
                    self.reset(q)
            elif op.name == "RX":
                for q in op.targets:
                    self.reset(q)
                    self.apply_1q(_H, q)
            elif op.name == "M":
                for q in op.targets:
                    self.measure(q, forced.get(len(self.record)))
            elif op.name == "MX":
                for q in op.targets:
                    self.measure_x(q, forced.get(len(self.record)))
            elif op.name in ANNOTATIONS:
                continue
            else:
                raise ValueError(f"state-vector simulator cannot run {op.name}")

    # -- analysis --------------------------------------------------------------

    def fidelity_with(self, other: "StateVector") -> float:
        """|<self|other>|^2 (both normalized)."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit-count mismatch")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")


def _pairs(targets: Sequence[int]):
    return zip(targets[0::2], targets[1::2])


def _triples(targets: Sequence[int]):
    return zip(targets[0::3], targets[1::3], targets[2::3])


def ccz_state(num_extra: int = 0) -> StateVector:
    """The |CCZ> = CCZ |+++> resource state (paper Eq. 7) on 3 (+extra) qubits."""
    sv = StateVector(3 + num_extra)
    for q in range(3):
        sv.apply_1q(_H, q)
    sv.apply_ccz(0, 1, 2)
    return sv
