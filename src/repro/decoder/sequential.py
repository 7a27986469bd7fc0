"""Sequential correlated decoder for transversal-CNOT circuits.

Implements the iterative strategy of the transversal-CNOT decoding
literature (paper Refs. [68, 70]): with all CNOTs directed control ->
target, the control patch's syndrome in a given CSS sector is untouched by
the target, so it is decoded first on its ordinary (marginal) matching
graph; every matched error mechanism also records the *remote* detector
flips its propagated copy produces on the target patch.  The target's
syndrome is corrected by those remote flips and then decoded on its own
marginal graph.  Both passes are plain MWPM, so the scheme retains full
code distance while accounting for cross-patch correlations.

Implementation note: remote detector flips are encoded as pseudo-observables
of the control-patch graph, reusing :class:`~repro.decoder.mwpm.MWPMDecoder`
unchanged.  Each pass decodes the whole batch of rows at once through
MWPM's batch path, which equals its per-row ``decode`` row for row; the
sector rows are built dense (:func:`~repro.decoder.base.dense_rows`),
because the remote flips XOR into the target's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.decoder.base import BatchDecoder, defect_lists, dense_rows
from repro.decoder.graph import DecodingGraph
from repro.decoder.mwpm import MWPMDecoder
from repro.noise.dem import DetectorErrorModel

DetectorMeta = Tuple[int, str, int, int]  # (patch, basis, check, round)


@dataclass
class _SectorMechanism:
    probability: float
    control_dets: Tuple[int, ...]  # local control-sector indices
    target_dets: Tuple[int, ...]  # local target-sector indices
    observables: Tuple[int, ...]


class SequentialCNOTDecoder(BatchDecoder):
    """Two-pass decoder for one-directional transversal-CNOT experiments.

    Args:
        dem: detector error model of the full two-patch circuit.
        detector_meta: per-detector (patch, basis, check, round) tuples from
            :class:`~repro.sim.memory.MemoryExperimentBuilder`.
        basis: CSS sector to decode ('Z' decodes X-type errors and the
            logical-Z observables of a memory-Z experiment).
        control_patch / target_patch: patch roles; every CNOT in the circuit
            must use this orientation for the sequential pass to be exact.
    """

    def __init__(
        self,
        dem: DetectorErrorModel,
        detector_meta: Sequence[DetectorMeta],
        basis: str = "Z",
        control_patch: int = 0,
        target_patch: int = 1,
    ) -> None:
        if len(detector_meta) != dem.num_detectors:
            raise ValueError("detector metadata does not match the DEM")
        self.basis = basis
        self.num_detectors = dem.num_detectors
        self.num_observables = dem.num_observables
        self._control_ids: List[int] = []
        self._target_ids: List[int] = []
        for det, (patch, det_basis, _check, _round) in enumerate(detector_meta):
            if det_basis != basis:
                continue
            if patch == control_patch:
                self._control_ids.append(det)
            elif patch == target_patch:
                self._target_ids.append(det)
        control_local = {g: i for i, g in enumerate(self._control_ids)}
        target_local = {g: i for i, g in enumerate(self._target_ids)}
        sector = set(control_local) | set(target_local)
        mechanisms: List[_SectorMechanism] = []
        for mech in dem.mechanisms:
            dets = [d for d in mech.detectors if d in sector]
            if not dets and not mech.observables:
                continue
            ctrl = tuple(sorted(control_local[d] for d in dets if d in control_local))
            targ = tuple(sorted(target_local[d] for d in dets if d in target_local))
            if not ctrl and not targ:
                continue
            mechanisms.append(
                _SectorMechanism(mech.probability, ctrl, targ, mech.observables)
            )
        self._control_decoder = self._build_control_decoder(mechanisms)
        self._target_decoder = self._build_target_decoder(mechanisms)

    # -- graph construction -------------------------------------------------

    def _build_control_decoder(self, mechanisms: List[_SectorMechanism]) -> MWPMDecoder:
        """Control marginal graph; remote target flips ride as pseudo-obs."""
        offset = self.num_observables
        graph = DecodingGraph(
            num_detectors=len(self._control_ids),
            num_observables=offset + len(self._target_ids),
        )
        for mech in mechanisms:
            if not mech.control_dets:
                continue
            if len(mech.control_dets) > 2:
                # Cannot occur for one-directional CNOTs; skip defensively.
                continue
            payload = frozenset(mech.observables) | frozenset(
                offset + t for t in mech.target_dets
            )
            graph.add_mechanism(mech.control_dets, mech.probability, payload)
        return MWPMDecoder(graph)

    def _build_target_decoder(self, mechanisms: List[_SectorMechanism]) -> MWPMDecoder:
        """Target marginal graph from mechanisms local to the target."""
        graph = DecodingGraph(
            num_detectors=len(self._target_ids),
            num_observables=self.num_observables,
        )
        for mech in mechanisms:
            if mech.control_dets or not mech.target_dets:
                continue
            if len(mech.target_dets) > 2:
                continue
            graph.add_mechanism(
                mech.target_dets, mech.probability, frozenset(mech.observables)
            )
        return MWPMDecoder(graph)

    # -- decoding ---------------------------------------------------------------

    def _decode_defects(
        self, row_of: np.ndarray, node: np.ndarray, rows: int
    ) -> np.ndarray:
        """Both passes over the whole batch, one MWPM batch decode each.

        The passes call the MWPM hook, not ``decode_defects``, so the
        decode telemetry counts this decoder's shots once.
        """
        syndromes = dense_rows(row_of, node, rows, self.num_detectors)
        first = self._control_decoder._decode_defects(
            *defect_lists(syndromes[:, self._control_ids])
        )
        remote = first[:, self.num_observables :]
        second = self._target_decoder._decode_defects(
            *defect_lists(syndromes[:, self._target_ids] ^ remote)
        )
        return first[:, : self.num_observables] ^ second
