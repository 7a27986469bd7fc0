"""Gate-level circuit IR shared by all simulators.

A :class:`Circuit` is an ordered list of operations.  Supported names:

* Clifford gates: ``H``, ``S``, ``S_DAG``, ``X``, ``Y``, ``Z``, ``CX``,
  ``CZ``, ``SWAP`` (two-qubit gates take qubit pairs).
* Non-Clifford gates (state-vector simulator only): ``T``, ``T_DAG``,
  ``CCZ``, ``CCX``.
* Resets/measurements: ``R`` (reset to |0>), ``RX`` (reset to |+>),
  ``M`` (measure Z), ``MX`` (measure X).  Measurements append to a global
  record; operations address records by absolute index.
* Noise channels: ``X_ERROR``, ``Z_ERROR``, ``Y_ERROR``, ``DEPOLARIZE1``
  (probability ``arg``), ``DEPOLARIZE2`` on qubit pairs, and the biased
  ``PAULI_CHANNEL_1`` / ``PAULI_CHANNEL_2`` whose per-Pauli outcome
  probabilities live in ``args`` (3 and 15 entries, ordered like
  :data:`repro.sim.ops.PAULI_1Q` / :data:`repro.sim.ops.PAULI_2Q`).
* Annotations: ``DETECTOR`` (XOR of measurement records, deterministic
  under no noise), ``OBSERVABLE_INCLUDE`` (adds records to a logical
  observable, ``arg`` = observable index), ``TICK`` (no-op marker), and
  the noise-model markers ``IDLE`` / ``FENCE`` placed by clean builders
  for :meth:`repro.noise.models.NoiseModel.apply` to consume.

The IR is deliberately stim-like so the detector/observable machinery of
:mod:`repro.sim.frame` can mirror standard QEC workflows.  Op-name
classification is single-sourced in :mod:`repro.sim.ops`; the historical
tuple names re-exported here stay importable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.sim.ops import (
    ALL_NAMES,
    ANNOTATIONS,
    CHANNEL_ARGS,
    CLIFFORD_1Q,
    CLIFFORD_2Q,
    MEASUREMENTS,
    NOISE,
    NOISE_1Q,
    NOISE_2Q,
    NON_CLIFFORD,
    PAIR_TARGETS,
    RESETS,
)

__all__ = [
    "ALL_NAMES",
    "ANNOTATIONS",
    "CLIFFORD_1Q",
    "CLIFFORD_2Q",
    "MEASUREMENTS",
    "NOISE_1Q",
    "NOISE_2Q",
    "NON_CLIFFORD",
    "RESETS",
    "Circuit",
    "Operation",
]


@dataclass(frozen=True)
class Operation:
    """One circuit instruction.

    Attributes:
        name: one of ``repro.sim.ops.ALL_NAMES``.
        targets: qubit indices (gates/noise) or measurement-record indices
            (annotations).
        arg: probability for noise (the *total* firing probability for the
            multi-outcome Pauli channels), observable index for
            ``OBSERVABLE_INCLUDE``; unused otherwise.
        args: per-outcome probabilities for ``PAULI_CHANNEL_1`` (px, py,
            pz) and ``PAULI_CHANNEL_2`` (15 entries in ``PAULI_2Q``
            order); empty for every other op.
    """

    name: str
    targets: Tuple[int, ...] = ()
    arg: float = 0.0
    args: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.name not in ALL_NAMES:
            raise ValueError(f"unknown operation {self.name!r}")
        if self.name in NOISE and not 0.0 <= self.arg <= 1.0:
            raise ValueError(f"noise probability out of range: {self.arg}")
        expected_args = CHANNEL_ARGS.get(self.name)
        if expected_args is not None:
            if len(self.args) != expected_args:
                raise ValueError(
                    f"{self.name} needs {expected_args} outcome "
                    f"probabilities, got {len(self.args)}"
                )
            if any(p < 0.0 for p in self.args) or sum(self.args) > 1.0 + 1e-12:
                raise ValueError(
                    f"{self.name} outcome probabilities invalid: {self.args}"
                )
            if not math.isclose(self.arg, sum(self.args), abs_tol=1e-12):
                raise ValueError(
                    f"{self.name} total {self.arg} != sum(args) {sum(self.args)}"
                )
        elif self.args:
            raise ValueError(f"{self.name} takes no outcome probabilities")
        if self.name in PAIR_TARGETS and len(self.targets) % 2:
            raise ValueError(f"{self.name} needs qubit pairs, got {self.targets}")
        if self.name in ("CCZ", "CCX") and len(self.targets) % 3:
            raise ValueError(f"{self.name} needs qubit triples, got {self.targets}")


class Circuit:
    """Mutable ordered operation list with a builder API."""

    def __init__(self) -> None:
        self.operations: List[Operation] = []
        self._num_measurements = 0
        self._num_qubits = 0

    # -- builder ----------------------------------------------------------

    def append(
        self,
        name: str,
        targets: Iterable[int] = (),
        arg: float = 0.0,
        args: Tuple[float, ...] = (),
    ) -> "Circuit":
        """Append one operation; returns self for chaining.

        DETECTOR / OBSERVABLE_INCLUDE targets must address measurement
        records that already exist (``0 <= record < num_measurements`` at
        append time).  Forward or negative record references would make
        an eager byte-per-bit interpreter and the compiled bit-packed pipeline
        (which extracts detectors in one deferred XOR-reduce) disagree, so
        they are rejected at construction instead.
        """
        op = Operation(name, tuple(int(t) for t in targets), arg, tuple(args))
        if name in ("DETECTOR", "OBSERVABLE_INCLUDE"):
            for rec in op.targets:
                if not 0 <= rec < self._num_measurements:
                    raise ValueError(
                        f"{name} references measurement record {rec}, but "
                        f"only records [0, {self._num_measurements}) exist "
                        f"at this point in the circuit"
                    )
        self.operations.append(op)
        if name in MEASUREMENTS:
            self._num_measurements += len(op.targets)
        if name not in ANNOTATIONS and op.targets:
            self._num_qubits = max(self._num_qubits, max(op.targets) + 1)
        return self

    def h(self, *qubits: int) -> "Circuit":
        return self.append("H", qubits)

    def s(self, *qubits: int) -> "Circuit":
        return self.append("S", qubits)

    def t(self, *qubits: int) -> "Circuit":
        return self.append("T", qubits)

    def t_dag(self, *qubits: int) -> "Circuit":
        return self.append("T_DAG", qubits)

    def x(self, *qubits: int) -> "Circuit":
        return self.append("X", qubits)

    def z(self, *qubits: int) -> "Circuit":
        return self.append("Z", qubits)

    def cx(self, *qubits: int) -> "Circuit":
        return self.append("CX", qubits)

    def cz(self, *qubits: int) -> "Circuit":
        return self.append("CZ", qubits)

    def swap(self, *qubits: int) -> "Circuit":
        return self.append("SWAP", qubits)

    def ccz(self, a: int, b: int, c: int) -> "Circuit":
        return self.append("CCZ", (a, b, c))

    def ccx(self, a: int, b: int, target: int) -> "Circuit":
        return self.append("CCX", (a, b, target))

    def reset(self, *qubits: int) -> "Circuit":
        return self.append("R", qubits)

    def reset_x(self, *qubits: int) -> "Circuit":
        return self.append("RX", qubits)

    def measure(self, *qubits: int) -> "Circuit":
        return self.append("M", qubits)

    def measure_x(self, *qubits: int) -> "Circuit":
        return self.append("MX", qubits)

    def tick(self) -> "Circuit":
        return self.append("TICK")

    def idle(self, qubits: Iterable[int]) -> "Circuit":
        """Mark ``qubits`` as idling through this moment (noise-model hook)."""
        return self.append("IDLE", qubits)

    def fence(self) -> "Circuit":
        """Layer boundary for noise insertion (consumed by noise models)."""
        return self.append("FENCE")

    def depolarize1(self, qubits: Iterable[int], p: float) -> "Circuit":
        return self.append("DEPOLARIZE1", qubits, p)

    def depolarize2(self, qubit_pairs: Iterable[int], p: float) -> "Circuit":
        return self.append("DEPOLARIZE2", qubit_pairs, p)

    def x_error(self, qubits: Iterable[int], p: float) -> "Circuit":
        return self.append("X_ERROR", qubits, p)

    def z_error(self, qubits: Iterable[int], p: float) -> "Circuit":
        return self.append("Z_ERROR", qubits, p)

    def pauli_channel_1(
        self, qubits: Iterable[int], px: float, py: float, pz: float
    ) -> "Circuit":
        """Biased single-qubit Pauli channel (X, Y, Z probabilities)."""
        return self.append(
            "PAULI_CHANNEL_1", qubits, px + py + pz, (px, py, pz)
        )

    def pauli_channel_2(
        self, qubit_pairs: Iterable[int], probabilities: Sequence[float]
    ) -> "Circuit":
        """Biased two-qubit Pauli channel (15 probabilities, PAULI_2Q order)."""
        probs = tuple(float(p) for p in probabilities)
        return self.append("PAULI_CHANNEL_2", qubit_pairs, sum(probs), probs)

    def detector(self, record_indices: Iterable[int]) -> "Circuit":
        """Declare that the XOR of these records is noiselessly constant."""
        return self.append("DETECTOR", record_indices)

    def observable_include(self, observable: int, record_indices: Iterable[int]) -> "Circuit":
        """Add measurement records into logical observable ``observable``."""
        return self.append("OBSERVABLE_INCLUDE", record_indices, float(observable))

    # -- inspection --------------------------------------------------------

    @property
    def num_measurements(self) -> int:
        return self._num_measurements

    @property
    def num_qubits(self) -> int:
        """1 + highest qubit index touched by a gate/noise/reset/measure
        (kept by :meth:`append`, like :attr:`num_measurements`)."""
        return self._num_qubits

    @property
    def num_detectors(self) -> int:
        return sum(1 for op in self.operations if op.name == "DETECTOR")

    @property
    def num_observables(self) -> int:
        indices = [int(op.arg) for op in self.operations if op.name == "OBSERVABLE_INCLUDE"]
        return max(indices) + 1 if indices else 0

    def count(self, name: str) -> int:
        """Total targets count of ops with this name (e.g. CX pair count)."""
        width = 2 if name in PAIR_TARGETS else 3 if name in ("CCZ", "CCX") else 1
        return sum(len(op.targets) // width for op in self.operations if op.name == name)

    def __iadd__(self, other: "Circuit") -> "Circuit":
        # A snapshot, so ``c += c`` appends each op once.
        for op in list(other.operations):
            self.append(op.name, op.targets, op.arg, op.args)
        return self

    def __len__(self) -> int:
        return len(self.operations)

    def __repr__(self) -> str:
        return f"Circuit({len(self.operations)} ops, {self.num_qubits} qubits)"

    def without_noise(self) -> "Circuit":
        """Copy with all noise channels removed."""
        clean = Circuit()
        for op in self.operations:
            if op.name in NOISE:
                continue
            clean.append(op.name, op.targets, op.arg, op.args)
        return clean
