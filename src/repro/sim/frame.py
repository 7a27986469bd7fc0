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
merges into the detector error model (DEM) and the packed samplers draw
shots from (one draw plan per noise op, XORed through
:func:`~repro.sim.compiled.xor_symptoms`, the kernel the importance
sampler shares).  (The :class:`DetectorErrorModel` / :class:`ErrorMechanism`
classes are re-exported here for compatibility;
:meth:`FrameSimulator.detector_error_model` delegates to
:func:`~repro.noise.dem.extract_dem`.)

:meth:`FrameSimulator.sample_packed` runs the program
:func:`repro.sim.periodic.compile_program` picks for the circuit (its
table from periodic extraction when it has a repeated round, from
whole-circuit propagation otherwise); :meth:`FrameSimulator.sample` is
its unpacked form.  The byte-per-bit reference interpreter the samples
are held to lives with the test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.noise.dem import DetectorErrorModel, ErrorMechanism  # noqa: F401
from repro.sim.circuit import Circuit
from repro.sim.compiled import transpose_packed


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
            unpacked bits of :meth:`sample_packed` for the same generator.
        """
        det_keys, obs_keys = self.sample_packed(shots, rng)
        return (
            np.unpackbits(det_keys, axis=1, count=self.circuit.num_detectors),
            np.unpackbits(obs_keys, axis=1, count=self.circuit.num_observables),
        )

    def sample_packed(
        self, shots: int, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample detector/observable tables as bit-packed per-shot keys.

        Runs the compiled program's ``run_packed``
        (:mod:`repro.sim.compiled`): noise is drawn sparsely -- only each
        channel's hits, with one
        :func:`~repro.sim.compiled.sample_channel` call per noise op in op
        order -- and each hit's fault-table row is XORed into the
        shot-bit-packed detector/observable planes, which
        :func:`~repro.sim.compiled.transpose_packed` turns into per-shot
        keys.  For the same seed the periodic and linear programs, and
        the byte-per-bit reference interpreter, agree *bit for bit*.

        Returns:
            (detectors, observables): uint8 arrays of shape
            ``(shots, ceil(num_detectors/8))`` and
            ``(shots, ceil(num_observables/8))``; each row is the shot's
            detector/observable bits packed with ``np.packbits`` big-endian
            bit order -- exactly the layout
            :meth:`repro.decoder.base.BatchDecoder.decode_packed` consumes.
        """
        program = self.compiled
        det, obs = program.run_packed(
            shots, rng if rng is not None else self._rng
        )
        return transpose_packed(det, shots), transpose_packed(obs, shots)

    # -- detector error model ----------------------------------------------------

    def detector_error_model(self) -> DetectorErrorModel:
        """Extract the circuit's DEM (see :func:`repro.noise.dem.extract_dem`)."""
        from repro.noise.dem import extract_dem

        return extract_dem(self.circuit)
