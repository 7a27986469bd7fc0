"""Surface-code memory and transversal-CNOT experiment builders.

Generates circuits in the IR of :mod:`repro.sim.circuit` with DETECTOR
and OBSERVABLE_INCLUDE annotations, in the style of standard QEC memory
experiments:

* :func:`memory_circuit` -- one rotated patch, ``rounds`` SE rounds,
  memory in the Z or X basis.
* :func:`transversal_cnot_circuit` -- two patches with transversal CNOTs
  applied between chosen SE rounds (paper Fig. 4(b)); detector definitions
  are re-routed through the gate so they stay deterministic, which is the
  essence of correlated decoding of transversal algorithms [17].

The builders emit *clean* circuits -- gates, SPAM, detectors, and the
``IDLE``/``FENCE`` noise-location markers of :mod:`repro.sim.ops` -- and
:meth:`MemoryExperimentBuilder.finalize` applies a pluggable
:class:`~repro.noise.models.NoiseModel` as a pure circuit transformation.
The default :class:`~repro.noise.models.UniformDepolarizing` model (the
scalar ``p=`` remains sugar for it) reproduces the historical hand-emitted
Sec. III.4 stream token for token (golden-pinned in
``tests/golden/emission_*.txt``); pass ``noise=`` to run the same
experiment under biased or movement-aware noise instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.codes.surface_code import RotatedSurfaceCode
from repro.noise.models import NoiseModel, resolve_noise_model
from repro.sim.circuit import Circuit

# CNOT scheduling offsets (relative to the plaquette corner).  X ancillas
# sweep a "Z" pattern (NE, NW, SE, SW) and Z ancillas an "N" pattern
# (NE, SE, NW, SW) -- the standard compatible pair that keeps hook errors
# benign; chosen empirically as the best of the valid schedules (see
# tests/test_decoder_montecarlo.py for the distance-suppression check).
_X_ORDER = ((-1, 0), (-1, -1), (0, 0), (0, -1))
_Z_ORDER = ((-1, 0), (0, 0), (-1, -1), (0, -1))

NoiseLike = Union[None, str, NoiseModel]


def _strict_default() -> bool:
    """Builder strict-verification default: the ``REPRO_STRICT`` env var.

    The test suite turns it on globally (``tests/conftest.py``), so every
    circuit a test builds is statically verified at construction; regular
    library use keeps verification opt-in.
    """
    return os.environ.get("REPRO_STRICT", "") not in ("", "0")


@dataclass
class _PatchLayout:
    """Qubit-index bookkeeping for one surface-code patch."""

    code: RotatedSurfaceCode
    data_offset: int
    ancilla_offset: int

    def data(self, index: int) -> int:
        return self.data_offset + index

    def x_ancilla(self, index: int) -> int:
        return self.ancilla_offset + index

    def z_ancilla(self, index: int) -> int:
        return self.ancilla_offset + len(self.code.x_plaquettes) + index


@dataclass
class _SyndromeHistory:
    """Records whose XOR reproduces each check's previous syndrome value."""

    previous: List[Optional[List[int]]]

    @classmethod
    def undefined(cls, count: int) -> "_SyndromeHistory":
        return cls([None] * count)

    @classmethod
    def zero(cls, count: int) -> "_SyndromeHistory":
        return cls([[] for _ in range(count)])


class MemoryExperimentBuilder:
    """Builds (multi-)patch memory circuits with transversal CNOT layers.

    Args:
        distance: code distance of every patch.
        num_patches: patches laid out side by side.
        basis: memory basis, 'Z' or 'X'.
        p: physical error rate handed to the noise model (kept as sugar
            for ``noise="uniform_depolarizing"``).
        noise: a :class:`~repro.noise.models.NoiseModel` instance or a
            registry name; ``None`` selects uniform depolarizing at ``p``.
            Registry names are resolved with this builder's ``distance``,
            so ``noise="movement_aware"`` derives its move duration from
            the actual patch size.
        strict: run the structural verifier passes of
            :mod:`repro.analysis` on the clean circuit (before the noise
            transform) and on the finalized noisy circuit, raising
            :class:`~repro.analysis.VerificationError` on error-severity
            diagnostics.  ``None`` (the default) reads the ``REPRO_STRICT``
            environment variable, which the test suite sets.
    """

    def __init__(
        self,
        distance: int,
        num_patches: int = 1,
        basis: str = "Z",
        p: float = 1e-3,
        noise: NoiseLike = None,
        strict: Optional[bool] = None,
    ) -> None:
        if basis not in ("Z", "X"):
            raise ValueError(f"basis must be 'Z' or 'X', got {basis}")
        if not 0 <= p < 1:
            raise ValueError(f"noise probability out of range: {p}")
        self.basis = basis
        self.p = p
        self.strict = _strict_default() if strict is None else strict
        self.noise = resolve_noise_model(noise, p, distance=distance)
        self.code = RotatedSurfaceCode(distance)
        self.circuit = Circuit()
        self.patches: List[_PatchLayout] = []
        per_patch = self.code.num_data + self.code.num_ancilla
        for i in range(num_patches):
            self.patches.append(
                _PatchLayout(
                    code=self.code,
                    data_offset=i * per_patch,
                    ancilla_offset=i * per_patch + self.code.num_data,
                )
            )
        self._x_history = [
            _SyndromeHistory.undefined(len(self.code.x_plaquettes))
            for _ in range(num_patches)
        ]
        self._z_history = [
            _SyndromeHistory.undefined(len(self.code.z_plaquettes))
            for _ in range(num_patches)
        ]
        self._round = 0
        # Parallel to detector emission order: (patch, basis, check, round);
        # round = -1 marks the final data-measurement detectors.
        self.detector_meta: List[Tuple[int, str, int, int]] = []
        self._initialize()

    # -- construction steps -------------------------------------------------

    def _initialize(self) -> None:
        reset = "R" if self.basis == "Z" else "RX"
        for patch_index, patch in enumerate(self.patches):
            qubits = [patch.data(i) for i in range(self.code.num_data)]
            self.circuit.append(reset, qubits)
            # Each patch's reset noise is emitted right after its reset op;
            # the fence keeps the model from coalescing across patches.
            self.circuit.fence()
            # The memory-basis checks start deterministic (value 0); the
            # conjugate checks are random in round 1.
            if self.basis == "Z":
                self._z_history[patch_index] = _SyndromeHistory.zero(
                    len(self.code.z_plaquettes)
                )
            else:
                self._x_history[patch_index] = _SyndromeHistory.zero(
                    len(self.code.x_plaquettes)
                )

    def se_round(self) -> None:
        """One syndrome-extraction round on every patch, with detectors."""
        records: Dict[Tuple[int, str, int], int] = {}
        for patch_index, patch in enumerate(self.patches):
            x_anc = [patch.x_ancilla(i) for i in range(len(self.code.x_plaquettes))]
            z_anc = [patch.z_ancilla(i) for i in range(len(self.code.z_plaquettes))]
            self.circuit.append("RX", x_anc)
            self.circuit.append("R", z_anc)
            for step in range(4):
                pairs: List[int] = []
                for i, plaq in enumerate(self.code.x_plaquettes):
                    neighbor = self._neighbor(plaq.position, _X_ORDER[step])
                    if neighbor is not None:
                        pairs += [patch.x_ancilla(i), patch.data(neighbor)]
                for i, plaq in enumerate(self.code.z_plaquettes):
                    neighbor = self._neighbor(plaq.position, _Z_ORDER[step])
                    if neighbor is not None:
                        pairs += [patch.data(neighbor), patch.z_ancilla(i)]
                if pairs:
                    self.circuit.cx(*pairs)
            # Data qubits idle through ancilla readout once per round.
            self.circuit.idle([patch.data(i) for i in range(self.code.num_data)])
            for i, anc in enumerate(x_anc):
                records[(patch_index, "X", i)] = self.circuit.num_measurements
                self.circuit.measure_x(anc)
            for i, anc in enumerate(z_anc):
                records[(patch_index, "Z", i)] = self.circuit.num_measurements
                self.circuit.measure(anc)
        # Emit detectors after all measurements of the round are recorded.
        self._round += 1
        for (patch_index, check_basis, i), rec in sorted(records.items(), key=lambda kv: kv[1]):
            history = (
                self._x_history[patch_index]
                if check_basis == "X"
                else self._z_history[patch_index]
            )
            prev = history.previous[i]
            if prev is not None:
                self.circuit.detector([rec] + prev)
                self.detector_meta.append((patch_index, check_basis, i, self._round))
            history.previous[i] = [rec]

    def transversal_cnot(self, control_patch: int, target_patch: int) -> None:
        """Transversal CX between two patches, re-routing detector history.

        Backward through CX: X_control -> X_control X_target (so the
        control's X syndrome expectation gains the target's previous X
        syndrome) and Z_target -> Z_control Z_target.
        """
        if control_patch == target_patch:
            raise ValueError("control and target patches must differ")
        control = self.patches[control_patch]
        target = self.patches[target_patch]
        pairs: List[int] = []
        for i in range(self.code.num_data):
            pairs += [control.data(i), target.data(i)]
        self.circuit.cx(*pairs)
        for i in range(len(self.code.x_plaquettes)):
            self._x_history[control_patch].previous[i] = _merge(
                self._x_history[control_patch].previous[i],
                self._x_history[target_patch].previous[i],
            )
        for i in range(len(self.code.z_plaquettes)):
            self._z_history[target_patch].previous[i] = _merge(
                self._z_history[target_patch].previous[i],
                self._z_history[control_patch].previous[i],
            )

    def finalize(self) -> Circuit:
        """Final data measurement, detectors, observables; then apply noise."""
        final_records: List[List[int]] = []
        for patch in self.patches:
            start = self.circuit.num_measurements
            qubits = [patch.data(i) for i in range(self.code.num_data)]
            if self.basis == "Z":
                self.circuit.measure(*qubits)
            else:
                self.circuit.measure_x(*qubits)
            # Per-patch measurement flips stay separate ops, as emitted
            # historically.
            self.circuit.fence()
            final_records.append(list(range(start, start + len(qubits))))
        plaqs = (
            self.code.z_plaquettes if self.basis == "Z" else self.code.x_plaquettes
        )
        for patch_index in range(len(self.patches)):
            history = (
                self._z_history[patch_index]
                if self.basis == "Z"
                else self._x_history[patch_index]
            )
            for i, plaq in enumerate(plaqs):
                prev = history.previous[i]
                if prev is None:
                    continue
                recs = [final_records[patch_index][q] for q in plaq.data] + prev
                self.circuit.detector(recs)
                self.detector_meta.append((patch_index, self.basis, i, -1))
        # Observables: each patch's own final logical operator.  For CNOT
        # circuits on product initial states this is always a product of
        # current stabilizers, hence noiselessly deterministic; its flip is
        # exactly "this patch's logical output was corrupted".
        logical = (
            self.code.logical_z_support()
            if self.basis == "Z"
            else self.code.logical_x_support()
        )
        for obs_index in range(len(self.patches)):
            recs = [final_records[obs_index][q] for q in logical]
            self.circuit.observable_include(obs_index, recs)
        if self.strict:
            self._verify(self.circuit, expect_clean=True)
        self.circuit = self.noise.apply(self.circuit)
        if self.strict:
            self._verify(self.circuit, expect_clean=False)
        return self.circuit

    @staticmethod
    def _verify(circuit: Circuit, *, expect_clean: bool) -> None:
        """Strict-mode structural verification (cheap op-list walks only).

        The DEM/graph consistency pass is deliberately excluded here: it
        re-runs extraction, which every decoding consumer performs -- and
        can gate via :func:`repro.analysis.verify_dem` -- anyway.
        """
        from repro.analysis import STRUCTURAL_PASSES, verify

        verify(
            circuit,
            passes=STRUCTURAL_PASSES,
            expect_clean=expect_clean,
            fail_on="error",
        )

    def _neighbor(self, corner: Tuple[int, int], offset: Tuple[int, int]) -> Optional[int]:
        coord = (corner[0] + offset[0], corner[1] + offset[1])
        d = self.code.distance
        if 0 <= coord[0] < d and 0 <= coord[1] < d:
            return self.code.data_index(*coord)
        return None


def _merge(a: Optional[List[int]], b: Optional[List[int]]) -> Optional[List[int]]:
    """XOR-merge two record lists; undefined poisons the result."""
    if a is None or b is None:
        return None
    return a + b


def memory_circuit(
    distance: int,
    rounds: int,
    p: float,
    basis: str = "Z",
    noise: NoiseLike = None,
    strict: Optional[bool] = None,
) -> Circuit:
    """Standard single-patch memory experiment."""
    if rounds < 1:
        raise ValueError("need at least one SE round")
    builder = MemoryExperimentBuilder(
        distance, num_patches=1, basis=basis, p=p, noise=noise, strict=strict
    )
    for _ in range(rounds):
        builder.se_round()
    return builder.finalize()


def transversal_cnot_experiment(
    distance: int,
    rounds: int,
    p: float,
    cnot_after_rounds: Sequence[int],
    basis: str = "Z",
    alternate_direction: bool = False,
    noise: NoiseLike = None,
    strict: Optional[bool] = None,
) -> MemoryExperimentBuilder:
    """Two-patch memory with transversal CNOTs after the listed rounds.

    ``cnot_after_rounds`` uses 1-based round numbers; a CNOT after round k
    sits between SE rounds k and k+1, matching the paper's "x CNOTs per SE
    round" with x = len(cnot_after_rounds)/rounds.  By default all CNOTs
    run patch 0 -> patch 1 (the configuration the sequential correlated
    decoder handles exactly); ``alternate_direction`` flips control/target
    every gate.

    Returns the builder (finalized); read ``builder.circuit`` and
    ``builder.detector_meta``.
    """
    if rounds < 2:
        raise ValueError("need at least two SE rounds around a CNOT")
    builder = MemoryExperimentBuilder(
        distance, num_patches=2, basis=basis, p=p, noise=noise, strict=strict
    )
    cnot_set = set(cnot_after_rounds)
    direction = 0
    for round_index in range(1, rounds + 1):
        builder.se_round()
        if round_index in cnot_set and round_index < rounds:
            if alternate_direction and direction % 2:
                builder.transversal_cnot(1, 0)
            else:
                builder.transversal_cnot(0, 1)
            direction += 1
    builder.finalize()
    return builder


def transversal_cnot_circuit(
    distance: int,
    rounds: int,
    p: float,
    cnot_after_rounds: Sequence[int],
    basis: str = "Z",
    noise: NoiseLike = None,
    strict: Optional[bool] = None,
) -> Circuit:
    """Circuit-only wrapper around :func:`transversal_cnot_experiment`."""
    return transversal_cnot_experiment(
        distance, rounds, p, cnot_after_rounds, basis, noise=noise,
        strict=strict,
    ).circuit
