"""CSS stabilizer codes specified by X/Z parity-check matrices.

A CSS code is given by binary matrices Hx (X-type stabilizers) and Hz
(Z-type stabilizers) with orthogonal row spaces: Hx @ Hz.T = 0 (mod 2).
The class validates the structure, computes k = n - rank(Hx) - rank(Hz),
and finds logical operator representatives by linear algebra over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.codes.pauli import Pauli, pauli


def _gf2_reduce(matrix: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over GF(2) and its pivot columns.

    Column by column: the first row at or below the current rank holding
    the column's bit becomes the pivot row, and every other row holding
    that bit is cleared with one vectorized XOR.
    """
    m = np.asarray(matrix, dtype=np.uint8) % 2  # a fresh array to reduce in place
    if m.ndim != 2:
        return np.zeros((0, 0), dtype=np.uint8), []
    rows, cols = m.shape
    pivots: List[int] = []
    for col in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        below = np.flatnonzero(m[rank:, col])
        if not below.size:
            continue
        pivot = rank + int(below[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        holders = np.flatnonzero(m[:, col])
        holders = holders[holders != rank]
        m[holders] ^= m[rank]
        pivots.append(col)
    return m, pivots


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a binary matrix over GF(2)."""
    return len(_gf2_reduce(matrix)[1])


def gf2_rowspace_contains(matrix: np.ndarray, vector: np.ndarray) -> bool:
    """True if ``vector`` lies in the GF(2) row space of ``matrix``."""
    m = np.asarray(matrix, dtype=np.uint8) % 2
    if m.size == 0:
        return not np.any(np.asarray(vector, dtype=np.uint8) % 2)
    stacked = np.vstack([m, np.asarray(vector, dtype=np.uint8) % 2])
    return gf2_rank(stacked) == gf2_rank(m)


def gf2_nullspace(matrix: np.ndarray) -> np.ndarray:
    """Basis (rows) of the GF(2) null space {v : M v = 0}.

    One basis vector per free (non-pivot) column of the reduced form: the
    free bit set, plus every pivot whose row holds that free bit.
    """
    m, pivots = _gf2_reduce(matrix)
    cols = m.shape[1]
    pivot_set = set(pivots)
    free_cols = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free_cols), cols), dtype=np.uint8)
    basis[np.arange(len(free_cols)), free_cols] = 1
    if pivots:
        basis[:, pivots] = m[: len(pivots)][:, free_cols].T
    return basis


@dataclass
class CSSCode:
    """A CSS code with explicit check matrices and derived logicals.

    Attributes:
        hx: X-stabilizer check matrix (rows = stabilizers).
        hz: Z-stabilizer check matrix.
        name: human-readable label.
    """

    hx: np.ndarray
    hz: np.ndarray
    name: str = "css"
    _logical_xs: List[np.ndarray] = field(default_factory=list, repr=False)
    _logical_zs: List[np.ndarray] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self.hx = np.asarray(self.hx, dtype=np.uint8) % 2
        self.hz = np.asarray(self.hz, dtype=np.uint8) % 2
        if self.hx.ndim != 2 or self.hz.ndim != 2:
            raise ValueError("check matrices must be 2-D")
        if self.hx.shape[1] != self.hz.shape[1]:
            raise ValueError("Hx and Hz must act on the same number of qubits")
        if np.any((self.hx @ self.hz.T) % 2):
            raise ValueError("CSS condition violated: Hx @ Hz.T != 0 (mod 2)")
        self._compute_logicals()

    # -- parameters ------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return int(self.hx.shape[1])

    @property
    def num_logical(self) -> int:
        return self.num_qubits - gf2_rank(self.hx) - gf2_rank(self.hz)

    @property
    def distance_upper_bound(self) -> int:
        """Minimum weight over the stored logical representatives."""
        weights = [int(v.sum()) for v in self._logical_xs + self._logical_zs]
        return min(weights) if weights else 0

    # -- stabilizers and logicals ----------------------------------------

    def x_stabilizers(self) -> List[Pauli]:
        """X-type stabilizer generators as Pauli objects."""
        return [
            pauli(self.num_qubits, xs=np.flatnonzero(row)) for row in self.hx
        ]

    def z_stabilizers(self) -> List[Pauli]:
        """Z-type stabilizer generators as Pauli objects."""
        return [
            pauli(self.num_qubits, zs=np.flatnonzero(row)) for row in self.hz
        ]

    def logical_x(self, index: int) -> Pauli:
        """Representative of the index-th logical X operator."""
        return pauli(self.num_qubits, xs=np.flatnonzero(self._logical_xs[index]))

    def logical_z(self, index: int) -> Pauli:
        """Representative of the index-th logical Z operator."""
        return pauli(self.num_qubits, zs=np.flatnonzero(self._logical_zs[index]))

    def is_x_logical(self, support: np.ndarray) -> bool:
        """True if an X operator on ``support`` commutes with all Z checks
        but is not a product of X stabilizers (i.e. acts non-trivially)."""
        v = np.asarray(support, dtype=np.uint8) % 2
        if np.any((self.hz @ v) % 2):
            return False
        return not gf2_rowspace_contains(self.hx, v)

    def is_z_logical(self, support: np.ndarray) -> bool:
        """Mirror of :meth:`is_x_logical` for Z operators."""
        v = np.asarray(support, dtype=np.uint8) % 2
        if np.any((self.hx @ v) % 2):
            return False
        return not gf2_rowspace_contains(self.hz, v)

    def _compute_logicals(self) -> None:
        """Pick pairwise-anticommuting logical X/Z representative pairs."""
        k = self.num_logical
        self._logical_xs = []
        self._logical_zs = []
        if k == 0:
            return
        # Candidates are the null-space vectors in basis order.  Those in
        # a stabilizer row space need no filtering: an X candidate there
        # fails the span test below, and a Z candidate there commutes
        # with every X candidate, so it is never picked as a partner.
        z_candidates = gf2_nullspace(self.hx)
        used_z: List[int] = []
        for xv in gf2_nullspace(self.hz):
            if len(self._logical_xs) == k:
                break
            # Skip if dependent on stabilizers + already chosen logicals.
            span = np.vstack([self.hx] + self._logical_xs) if self._logical_xs else self.hx
            if gf2_rowspace_contains(span, xv):
                continue
            partner = None
            for j, zv in enumerate(z_candidates):
                if j in used_z:
                    continue
                if int(np.dot(xv, zv)) % 2 == 1:
                    partner = j
                    break
            if partner is None:
                continue
            zv = z_candidates[partner].copy()
            # Symplectically clean previous pairs so the basis is canonical:
            # each new pair must commute with all earlier pairs.
            for i in range(len(self._logical_xs)):
                if int(np.dot(zv, self._logical_xs[i])) % 2:
                    zv ^= self._logical_zs[i]
                if int(np.dot(xv, self._logical_zs[i])) % 2:
                    xv = xv ^ self._logical_xs[i]
            used_z.append(partner)
            self._logical_xs.append(xv % 2)
            self._logical_zs.append(zv % 2)
        if len(self._logical_xs) != k:
            raise ValueError(
                f"failed to construct {k} logical pairs for code {self.name}"
            )

    def validate(self) -> None:
        """Re-check all structural invariants; raises on violation."""
        if np.any((self.hx @ self.hz.T) % 2):
            raise AssertionError("stabilizers do not commute")
        for i, xv in enumerate(self._logical_xs):
            if np.any((self.hz @ xv) % 2):
                raise AssertionError(f"logical X{i} anticommutes with a Z check")
            for j, zv in enumerate(self._logical_zs):
                expected = 1 if i == j else 0
                if int(np.dot(xv, zv)) % 2 != expected:
                    raise AssertionError(f"bad symplectic pairing X{i}, Z{j}")
        for i, zv in enumerate(self._logical_zs):
            if np.any((self.hx @ zv) % 2):
                raise AssertionError(f"logical Z{i} anticommutes with an X check")
