"""CHP-style stabilizer tableau simulator (Aaronson-Gottesman 2004).

Tracks 2n generators (n destabilizers + n stabilizers) as rows of binary
X/Z matrices plus a sign vector.  Supports H, S, CX (and gates derived from
them), X/Z-basis resets and measurements with correctly-sampled random
outcomes.  Used to verify GHZ-fan-out circuits, surface-code stabilizer
flows, and detector determinism of the transversal-CNOT memory circuits at
small distance.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.sim.circuit import Circuit
from repro.sim.ops import ANNOTATIONS


class TableauSimulator:
    """Stabilizer states on ``num_qubits`` qubits, initialized to |0...0>."""

    def __init__(self, num_qubits: int, rng: Optional[np.random.Generator] = None) -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        self.n = num_qubits
        # Rows 0..n-1: destabilizers; rows n..2n-1: stabilizers.
        self.x = np.zeros((2 * num_qubits, num_qubits), dtype=np.uint8)
        self.z = np.zeros((2 * num_qubits, num_qubits), dtype=np.uint8)
        self.sign = np.zeros(2 * num_qubits, dtype=np.uint8)
        for q in range(num_qubits):
            self.x[q, q] = 1  # destabilizer X_q
            self.z[num_qubits + q, q] = 1  # stabilizer Z_q
        self.record: List[int] = []
        self._rng = rng if rng is not None else np.random.default_rng()

    def copy(self) -> "TableauSimulator":
        """Deep copy sharing nothing; its generator is spawned from this
        one's, so the copy's outcomes follow from the parent's seed."""
        dup = TableauSimulator(self.n, rng=self._rng.spawn(1)[0])
        dup.x = self.x.copy()
        dup.z = self.z.copy()
        dup.sign = self.sign.copy()
        dup.record = list(self.record)
        return dup

    # -- gates --------------------------------------------------------------

    def h(self, q: int) -> None:
        """Hadamard: X <-> Z, sign ^= x & z."""
        self.sign ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int) -> None:
        """Phase gate: X -> Y; sign ^= x & z."""
        self.sign ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def s_dag(self, q: int) -> None:
        self.s(q)
        self.s(q)
        self.s(q)

    def x_gate(self, q: int) -> None:
        self.sign ^= self.z[:, q]

    def z_gate(self, q: int) -> None:
        self.sign ^= self.x[:, q]

    def y_gate(self, q: int) -> None:
        self.z_gate(q)
        self.x_gate(q)

    def cx(self, control: int, target: int) -> None:
        """CNOT with the standard CHP sign update."""
        xc, zc = self.x[:, control], self.z[:, control]
        xt, zt = self.x[:, target], self.z[:, target]
        self.sign ^= xc & zt & (xt ^ zc ^ 1)
        self.x[:, target] ^= xc
        self.z[:, control] ^= zt

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cx(a, b)
        self.h(b)

    def swap(self, a: int, b: int) -> None:
        self.cx(a, b)
        self.cx(b, a)
        self.cx(a, b)

    # -- measurement ----------------------------------------------------------

    def is_deterministic(self, q: int) -> bool:
        """True if a Z measurement of ``q`` would have a fixed outcome."""
        return not any(self.x[r, q] for r in range(self.n, 2 * self.n))

    def is_deterministic_x(self, q: int) -> bool:
        """True if an X measurement of ``q`` would have a fixed outcome."""
        self.h(q)
        fixed = self.is_deterministic(q)
        self.h(q)
        return fixed

    def measure(self, q: int, forced: Optional[int] = None) -> int:
        """Projective Z measurement with CHP update; records the outcome."""
        n = self.n
        stab_rows = [r for r in range(n, 2 * n) if self.x[r, q]]
        if stab_rows:
            outcome = int(forced) if forced is not None else int(self._rng.integers(0, 2))
            pivot = stab_rows[0]
            for r in range(2 * n):
                if r != pivot and self.x[r, q]:
                    self._row_mult(r, pivot)
            # Destabilizer inherits the old stabilizer; new stabilizer +-Z_q.
            self.x[pivot - n] = self.x[pivot]
            self.z[pivot - n] = self.z[pivot]
            self.sign[pivot - n] = self.sign[pivot]
            self.x[pivot] = 0
            self.z[pivot] = 0
            self.z[pivot, q] = 1
            self.sign[pivot] = outcome
        else:
            outcome = self._deterministic_outcome(q)
            if forced is not None and forced != outcome:
                raise ValueError(
                    f"cannot force outcome {forced} on a deterministic measurement"
                )
        self.record.append(outcome)
        return outcome

    def measure_x(self, q: int, forced: Optional[int] = None) -> int:
        self.h(q)
        outcome = self.measure(q, forced)
        self.h(q)
        return outcome

    def reset(self, q: int) -> None:
        """Reset to |0> (measure then conditionally flip); not recorded."""
        outcome = self.measure(q)
        self.record.pop()
        if outcome:
            self.x_gate(q)

    def reset_x(self, q: int) -> None:
        self.reset(q)
        self.h(q)

    def _deterministic_outcome(self, q: int) -> int:
        """CHP scratch-row computation of a deterministic Z outcome."""
        n = self.n
        sign = 0
        phase = 0
        x = np.zeros(n, dtype=np.uint8)
        z = np.zeros(n, dtype=np.uint8)
        for r in range(n):
            if self.x[r, q]:
                sign, phase, x, z = _pauli_mult(
                    sign, phase, x, z, int(self.sign[r + n]), self.x[r + n], self.z[r + n]
                )
        if phase:
            raise AssertionError("deterministic outcome acquired imaginary phase")
        return sign

    def _row_mult(self, dst: int, src: int) -> None:
        """Row_dst <- Row_src * Row_dst with phase tracking.

        Destabilizer rows (dst < n) may pick up imaginary phases; their
        signs are never read, so the residual phase is dropped there.
        Stabilizer-group products must stay Hermitian.
        """
        sign, phase, x, z = _pauli_mult(
            int(self.sign[src]), 0, self.x[src], self.z[src],
            int(self.sign[dst]), self.x[dst], self.z[dst],
        )
        if phase and dst >= self.n:
            raise AssertionError("stabilizer product acquired imaginary phase")
        self.sign[dst] = sign
        self.x[dst] = x
        self.z[dst] = z

    # -- state queries ----------------------------------------------------------

    def expectation(self, x_mask: np.ndarray, z_mask: np.ndarray) -> Optional[int]:
        """Sign of a Pauli with supports (x_mask, z_mask) on this state.

        Returns 0 if the Pauli stabilizes the state (+1 eigenvalue), 1 if
        the negated Pauli does (-1), or None if the state is not an
        eigenstate (expectation value zero).

        Implemented by adjoining an ancilla in |+>, applying the
        controlled-Pauli, and measuring the ancilla in X on a copy.
        """
        x_mask = np.asarray(x_mask, dtype=np.uint8)
        z_mask = np.asarray(z_mask, dtype=np.uint8)
        n = self.n
        big = TableauSimulator(n + 1, rng=np.random.default_rng(0))
        big.x[:n, :n] = self.x[:n]
        big.z[:n, :n] = self.z[:n]
        big.x[n + 1 : 2 * n + 1, :n] = self.x[n:]
        big.z[n + 1 : 2 * n + 1, :n] = self.z[n:]
        big.sign[:n] = self.sign[:n]
        big.sign[n + 1 : 2 * n + 1] = self.sign[n:]
        ancilla = n  # fresh |0> with destabilizer X_a (row n), stabilizer Z_a.
        big.x[ancilla] = 0
        big.z[ancilla] = 0
        big.x[ancilla, ancilla] = 1
        big.sign[ancilla] = 0
        big.x[2 * n + 1] = 0
        big.z[2 * n + 1] = 0
        big.z[2 * n + 1, ancilla] = 1
        big.sign[2 * n + 1] = 0
        big.h(ancilla)
        for q in range(n):
            if x_mask[q] and z_mask[q]:
                big.s_dag(q)
                big.cx(ancilla, q)
                big.s(q)
            elif x_mask[q]:
                big.cx(ancilla, q)
            elif z_mask[q]:
                big.cz(ancilla, q)
        if big.is_deterministic_x(ancilla):
            return big.measure_x(ancilla)
        return None

    # -- circuit execution ---------------------------------------------------

    def run(self, circuit: Circuit, forced_measurements: Optional[Dict[int, int]] = None) -> None:
        """Execute the Clifford subset of the IR (noise ops rejected)."""
        forced = forced_measurements or {}
        for op in circuit.operations:
            if op.name == "H":
                for q in op.targets:
                    self.h(q)
            elif op.name == "S":
                for q in op.targets:
                    self.s(q)
            elif op.name == "S_DAG":
                for q in op.targets:
                    self.s_dag(q)
            elif op.name == "X":
                for q in op.targets:
                    self.x_gate(q)
            elif op.name == "Y":
                for q in op.targets:
                    self.y_gate(q)
            elif op.name == "Z":
                for q in op.targets:
                    self.z_gate(q)
            elif op.name == "CX":
                for c, t in zip(op.targets[0::2], op.targets[1::2]):
                    self.cx(c, t)
            elif op.name == "CZ":
                for a, b in zip(op.targets[0::2], op.targets[1::2]):
                    self.cz(a, b)
            elif op.name == "SWAP":
                for a, b in zip(op.targets[0::2], op.targets[1::2]):
                    self.swap(a, b)
            elif op.name == "R":
                for q in op.targets:
                    self.reset(q)
            elif op.name == "RX":
                for q in op.targets:
                    self.reset_x(q)
            elif op.name == "M":
                for q in op.targets:
                    self.measure(q, forced.get(len(self.record)))
            elif op.name == "MX":
                for q in op.targets:
                    self.measure_x(q, forced.get(len(self.record)))
            elif op.name in ANNOTATIONS:
                continue
            else:
                raise ValueError(f"tableau simulator cannot run {op.name}")


def _pauli_mult(sign_a, phase_a, xa, za, sign_b, xb, zb):
    """(-1)^sign_a i^phase_a P_a times (-1)^sign_b P_b, CHP convention.

    Returns (sign, residual_i_phase, x, z).
    """
    g_total = 0
    for xa_i, za_i, xb_i, zb_i in zip(xa, za, xb, zb):
        g_total += _g(int(xa_i), int(za_i), int(xb_i), int(zb_i))
    phase = (2 * sign_a + 2 * sign_b + g_total + phase_a) % 4
    return phase // 2, phase % 2, xa ^ xb, za ^ zb


def _g(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent of i when multiplying single-qubit Paulis (CHP paper)."""
    if x1 == 0 and z1 == 0:
        return 0
    if x1 == 1 and z1 == 1:  # Y
        return z2 - x2
    if x1 == 1 and z1 == 0:  # X
        return z2 * (2 * x2 - 1)
    return x2 * (1 - 2 * z2)  # Z
