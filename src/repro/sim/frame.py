"""Pauli-frame Monte-Carlo sampler.

The frame simulator propagates only *errors* through a Clifford circuit:
the noiseless circuit is assumed to make every DETECTOR deterministic (the
builders in :mod:`repro.sim.memory` guarantee this; a tableau cross-check is
provided in the tests).  Each shot holds an X/Z frame per qubit; noise ops
flip frame bits with their probabilities, gates conjugate the frame, and a
measurement's outcome flip is the frame's anticommutation with the measured
observable.  Detector values are XORs of measurement flips.

Because the frame starts at zero and every op acts on it linearly, a
shot's detector values are the XOR of the symptoms of the errors drawn
for it.  So the frames are propagated once per circuit, not per shot:
the packed propagation, run with one bit column per elementary error
mechanism, yields every fault's symptom -- the fault table of
:func:`repro.noise.dem.circuit_faults`, which :mod:`repro.noise.dem`
merges into the detector error model (DEM) and the samplers draw
shots from (one draw plan per noise op, XORed into defect lists by
:func:`~repro.sim.compiled.symptom_lists`, the kernel the importance
sampler shares).  (The :class:`DetectorErrorModel` / :class:`ErrorMechanism`
classes are re-exported here for compatibility;
:meth:`FrameSimulator.detector_error_model` delegates to
:func:`~repro.noise.dem.extract_dem`.)

:meth:`FrameSimulator.sample_defects` runs the program
:func:`repro.sim.periodic.compile_program` picks for the circuit (its
table from periodic extraction when it has a repeated round, from
whole-circuit propagation otherwise) and returns the shots as sorted
defect lists, the form the decoding engine decodes;
:meth:`FrameSimulator.sample_packed` and :meth:`FrameSimulator.sample`
give the same shots as bit-packed per-shot keys and as byte-per-bit
tables.  The
byte-per-bit reference interpreter the samples are held to lives with
the test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.noise.dem import DetectorErrorModel, ErrorMechanism  # noqa: F401
from repro.sim.circuit import Circuit
from repro.sim.compiled import DefectBatch
# Re-exported: layer tracers wrap ``repro.sim.frame.transpose_packed`` by
# name, so the name stays bound here.
from repro.sim.compiled import transpose_packed  # noqa: F401


class FrameSimulator:
    """Vectorized Pauli-frame propagation over many shots.

    Args:
        circuit: the circuit to sample.
        rng: default noise generator for sampling calls without one.
    """

    def __init__(
        self, circuit: Circuit, rng: Optional[np.random.Generator] = None
    ) -> None:
        self.circuit = circuit
        self.num_qubits = circuit.num_qubits
        self._rng = rng if rng is not None else np.random.default_rng()
        self._compiled = None

    @property
    def compiled(self):
        """The circuit's packed program, compiled on first use and kept.

        A :class:`~repro.sim.periodic.PeriodicProgram` when the circuit
        has a detected repeated round, else the linear
        :class:`~repro.sim.compiled.CompiledProgram`; both sample
        bit-identically per seed.
        """
        if self._compiled is None:
            from repro.sim.periodic import compile_program

            self._compiled = compile_program(self.circuit)
        return self._compiled

    # -- sampling --------------------------------------------------------------

    def sample(
        self, shots: int, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample detector and observable flip tables.

        Args:
            shots: number of Monte-Carlo shots to draw.
            rng: generator to draw noise from; defaults to the simulator's
                own.  Passing an explicit generator lets callers (e.g. the
                sharded decoding engine) sample independent, reproducible
                streams without rebuilding the simulator.

        Returns:
            (detectors, observables): uint8 arrays of shape
            (shots, num_detectors) and (shots, num_observables) -- the
            shots of :meth:`sample_defects` for the same generator.
        """
        batch = self.sample_defects(shots, rng)
        detectors = np.zeros((shots, self.circuit.num_detectors), dtype=np.uint8)
        detectors[batch.shot, batch.detector] = 1
        return detectors, batch.observables

    def sample_defects(
        self, shots: int, rng: Optional[np.random.Generator] = None
    ) -> DefectBatch:
        """Sample shots as sorted ``(shot, detector)`` defect lists.

        Runs the compiled program's ``sample_defects``
        (:mod:`repro.sim.compiled`): noise is drawn sparsely -- only each
        channel's hits, with one
        :func:`~repro.sim.compiled.sample_channel` call per noise op in op
        order -- and the hits' fault-table rows are XORed into defect
        lists and an observable table.  For the same seed the periodic
        and linear programs, and the byte-per-bit reference interpreter,
        agree *bit for bit*.
        """
        return self.compiled.sample_defects(
            shots, rng if rng is not None else self._rng
        )

    def sample_packed(
        self, shots: int, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample detector/observable tables as bit-packed per-shot keys.

        The bits of :meth:`sample_defects` for the same generator.

        Returns:
            (detectors, observables): uint8 arrays of shape
            ``(shots, ceil(num_detectors/8))`` and
            ``(shots, ceil(num_observables/8))``; each row is the shot's
            detector/observable bits packed with ``np.packbits`` big-endian
            bit order -- exactly the layout
            :meth:`repro.decoder.base.BatchDecoder.decode_packed` consumes.
        """
        return self.sample_defects(shots, rng).packed(self.circuit.num_detectors)

    # -- detector error model ----------------------------------------------------

    def detector_error_model(self) -> DetectorErrorModel:
        """Extract the circuit's DEM (see :func:`repro.noise.dem.extract_dem`)."""
        from repro.noise.dem import extract_dem

        return extract_dem(self.circuit)
