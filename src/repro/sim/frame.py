"""Pauli-frame Monte-Carlo sampler.

The frame simulator propagates only *errors* through a Clifford circuit:
the noiseless circuit is assumed to make every DETECTOR deterministic (the
builders in :mod:`repro.sim.memory` guarantee this; a tableau cross-check is
provided in the tests).  Each shot holds an X/Z frame per qubit; noise ops
flip frame bits with their probabilities, gates conjugate the frame, and a
measurement's outcome flip is the frame's anticommutation with the measured
observable.  Detector values are XORs of measurement flips.

:meth:`FrameSimulator.sample` walks the op list byte per bit -- the
reference sampler.  :meth:`FrameSimulator.sample_packed` runs the packed
program :func:`repro.sim.periodic.compile_program` picks for the circuit
(periodic replay when it has a repeated round, linear otherwise) and
returns the same bits per seed.

The same propagation engine, run with one "shot" per elementary error
mechanism, yields the detector error model (DEM): for every possible
physical error, the set of detectors and logical observables it flips.
That extraction lives in :mod:`repro.noise.dem` (the
:class:`DetectorErrorModel` / :class:`ErrorMechanism` classes are
re-exported here for compatibility); :meth:`FrameSimulator.detector_error_model`
delegates to it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.noise.dem import DetectorErrorModel, ErrorMechanism  # noqa: F401
from repro.sim.circuit import Circuit
from repro.sim.compiled import noise_channel, sample_channel, transpose_packed
from repro.sim.ops import NOISE, NOISE_2Q, NOISE_MARKERS


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
        """The circuit's packed program (fingerprint-memoized, fetched once).

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
            (shots, num_detectors) and (shots, num_observables).
        """
        frame_x = np.zeros((shots, self.num_qubits), dtype=np.uint8)
        frame_z = np.zeros((shots, self.num_qubits), dtype=np.uint8)
        flips = np.zeros((shots, self.circuit.num_measurements), dtype=np.uint8)
        detectors = np.zeros((shots, self.circuit.num_detectors), dtype=np.uint8)
        observables = np.zeros((shots, max(self.circuit.num_observables, 1)), dtype=np.uint8)
        cursor = _Cursor()
        for op in self.circuit.operations:
            self._apply(
                op, frame_x, frame_z, flips, detectors, observables, cursor,
                noisy=True, rng=rng if rng is not None else self._rng,
            )
        return detectors, observables[:, : self.circuit.num_observables]

    def sample_packed(
        self, shots: int, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample detector/observable tables as bit-packed per-shot keys.

        Runs the compiled bit-packed pipeline (:mod:`repro.sim.compiled`):
        gates operate on packed word rows (8-64 shots per ALU op) and
        detector extraction is one sparse XOR-reduce.  Noise is drawn
        sparsely -- only each channel's hits, with one
        :func:`~repro.sim.compiled.sample_channel` call per noise op in op
        order, exactly as :meth:`sample` draws them -- so for the same seed
        the unpacked bits equal :meth:`sample`'s output *bit for bit*.

        Returns:
            (detectors, observables): uint8 arrays of shape
            ``(shots, ceil(num_detectors/8))`` and
            ``(shots, ceil(num_observables/8))``; each row is the shot's
            detector/observable bits packed with ``np.packbits`` big-endian
            bit order -- exactly the dedup key format
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

    # -- op application ------------------------------------------------------------

    def _apply(self, op, frame_x, frame_z, flips, detectors, observables, cursor, noisy, rng=None):
        rng = rng if rng is not None else self._rng
        name = op.name
        if name == "H":
            for q in op.targets:
                frame_x[:, q], frame_z[:, q] = frame_z[:, q].copy(), frame_x[:, q].copy()
        elif name == "S" or name == "S_DAG":
            for q in op.targets:
                frame_z[:, q] ^= frame_x[:, q]
        elif name in ("X", "Y", "Z", "TICK") or name in NOISE_MARKERS:
            return  # Paulis commute through the frame; markers are no-ops.
        elif name == "CX":
            for c, t in zip(op.targets[0::2], op.targets[1::2]):
                frame_x[:, t] ^= frame_x[:, c]
                frame_z[:, c] ^= frame_z[:, t]
        elif name == "CZ":
            for a, b in zip(op.targets[0::2], op.targets[1::2]):
                frame_z[:, a] ^= frame_x[:, b]
                frame_z[:, b] ^= frame_x[:, a]
        elif name == "SWAP":
            for a, b in zip(op.targets[0::2], op.targets[1::2]):
                frame_x[:, [a, b]] = frame_x[:, [b, a]]
                frame_z[:, [a, b]] = frame_z[:, [b, a]]
        elif name == "R":
            for q in op.targets:
                frame_x[:, q] = 0
                frame_z[:, q] = 0
        elif name == "RX":
            for q in op.targets:
                frame_x[:, q] = 0
                frame_z[:, q] = 0
        elif name == "M":
            for q in op.targets:
                flips[:, cursor.measurement] = frame_x[:, q]
                cursor.measurement += 1
        elif name == "MX":
            for q in op.targets:
                flips[:, cursor.measurement] = frame_z[:, q]
                cursor.measurement += 1
        elif name == "DETECTOR":
            value = np.zeros(flips.shape[0], dtype=np.uint8)
            for rec in op.targets:
                value ^= flips[:, rec]
            detectors[:, cursor.detector] = value
            cursor.detector += 1
        elif name == "OBSERVABLE_INCLUDE":
            index = int(op.arg)
            for rec in op.targets:
                observables[:, index] ^= flips[:, rec]
        elif name in NOISE:
            if noisy:
                # Same sample_channel call as the compiled pipeline, in op
                # order; each hit flips single bytes of the (shot, qubit)
                # frames, accumulating on repeated targets.
                two = name in NOISE_2Q
                targets = np.asarray(op.targets, dtype=np.intp)
                firsts = targets[0::2] if two else targets
                target, shot, code = sample_channel(
                    rng, firsts.size, flips.shape[0], noise_channel(op)
                )
                a = firsts[target]
                np.bitwise_xor.at(frame_x, (shot, a), (code >> 3) & 1)
                np.bitwise_xor.at(frame_z, (shot, a), (code >> 2) & 1)
                if two:
                    b = targets[1::2][target]
                    np.bitwise_xor.at(frame_x, (shot, b), (code >> 1) & 1)
                    np.bitwise_xor.at(frame_z, (shot, b), code & 1)
        else:
            raise ValueError(f"frame simulator cannot run {name}")


class _Cursor:
    """Mutable counters for measurement/detector positions during a pass."""

    def __init__(self) -> None:
        self.measurement = 0
        self.detector = 0
