"""Compiled, bit-packed circuit programs for the Pauli-frame sampler.

A byte-per-bit frame interpreter stores one uint8 per (shot, qubit) and
walks every op target in a Python loop, so its cost is
O(ops * targets * shots) interpreted work.  This module is the package's
one frame-propagation engine, and it closes that gap the way SIMD-style
stabilizer samplers do:

* **Compile once** -- :class:`CompiledProgram` lowers a
  :class:`~repro.sim.circuit.Circuit` into a flat program of fused steps.
  Consecutive gates with the same semantics are merged (``S``/``S_DAG``
  and ``R``/``RX`` are canonicalized, repeated involutions parity-reduced)
  and their target lists are precomputed as numpy index arrays, split into
  conflict-free chunks so fancy-indexed whole-row updates are exactly
  equivalent to the sequential per-target loop.
* **Bit-packed frames** -- X/Z frames are ``(num_qubits, ceil(shots/8))``
  uint8 bitplanes, padded so each row is also viewable as uint64 words.
  H/S/CX/CZ/SWAP/R/M become whole-row XORs/swaps/copies over packed words,
  processing 64 shots per ALU op instead of one.
* **Sparse GF(2) record maps** -- DETECTOR / OBSERVABLE_INCLUDE
  annotations are lowered to COO index arrays over measurement records;
  detector extraction is one unbuffered XOR-reduce
  (:func:`numpy.bitwise_xor.at`) at the end of the pass instead of per-op
  column loops.
* **Sparse noise** -- a noise step touches only the (target, shot)
  positions where its channel fires.  :func:`bernoulli_hits` draws those
  positions exactly by geometric gap skipping, so a step costs O(expected
  hits) instead of one uniform per target per shot; outcomes (X/Y/Z, or
  one of the 15 two-qubit Paulis, or a biased channel's Pauli) are drawn
  for the hits only (:func:`sample_channel`), and the hits are XORed into
  the packed planes as ``(row, byte, bit mask)`` triples.  The
  byte-per-bit reference interpreter of the test oracles
  (``tests/oracles.py``) makes the same :func:`sample_channel` calls in
  op order and applies the same hits byte by byte, so for the same seed
  the two produce *bit-identical* detector/observable samples.  The
  equivalence is property-tested in ``tests/test_sim_compiled.py``; the
  channel statistics are checked against the channel probabilities in
  ``tests/test_noise_sampling_stats.py``.

The same steps, run with one bit column per error mechanism and a
deterministic injector in place of the sampler (:func:`injection_noise`),
extract the detector error model (:mod:`repro.noise.dem`).

Shot-major vs detector-major: frames pack shots along rows so gate ops are
contiguous; decoders key on per-shot syndromes.  :func:`transpose_packed`
converts between the two layouts once per sample at the decoder boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.obs import metrics as _metrics
from repro.sim.circuit import Circuit
from repro.sim.ops import (
    CANONICAL_FRAME_GATE as _CANONICAL,
    CHANNEL_ARGS,
    DROPPED_BY_COMPILER as _DROPPED,
    FUSABLE as _FUSABLE,
    NOISE as _NOISE,
    NOISE_2Q,
    PAULI_1Q_CODES,
    PAULI_2Q_CODES,
)

_NOISE_HITS = _metrics.counter(
    "repro_sim_noise_hits_total",
    "Noise-channel hits drawn by the packed sampler (run_packed).",
)

# Flip codes per channel outcome, in the four-plane layout of
# PAULI_2Q_CODES: bit 3 = X on the first qubit, bit 2 = Z on the first,
# bit 1 = X on the second, bit 0 = Z on the second.  Single-qubit
# channels use the first-qubit bits only.
_CODES_1Q = np.array([code << 2 for code in PAULI_1Q_CODES], dtype=np.uint8)
_CODES_2Q = np.array(PAULI_2Q_CODES, dtype=np.uint8)
_PAULI_ERRORS = {
    name: np.array([code], dtype=np.uint8)
    for name, code in (("X_ERROR", 8), ("Y_ERROR", 12), ("Z_ERROR", 4))
}
_NO_CDF = np.empty(0, dtype=np.float64)


def _index_array(values: Sequence[int]) -> np.ndarray:
    return np.asarray(list(values), dtype=np.intp)


def _parity_reduced(targets: Sequence[int]) -> np.ndarray:
    """Qubits hit an odd number of times, for involution gates (H, S)."""
    counts: Dict[int, int] = {}
    for q in targets:
        counts[q] = counts.get(q, 0) + 1
    return _index_array(sorted(q for q, c in counts.items() if c % 2))


def _disjoint_pair_chunks(
    pairs: Sequence[Tuple[int, int]]
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split a pair list into chunks whose flattened qubits are unique.

    Within such a chunk, a simultaneous fancy-indexed row update is exactly
    equivalent to applying the pairs one at a time (no read/write overlap
    and no dropped XOR accumulation on repeated indices).
    """
    chunks: List[Tuple[np.ndarray, np.ndarray]] = []
    first: List[int] = []
    second: List[int] = []
    used: set = set()
    for a, b in pairs:
        if a in used or b in used or a == b:
            chunks.append((_index_array(first), _index_array(second)))
            first, second, used = [], [], set()
        first.append(a)
        second.append(b)
        used.add(a)
        used.add(b)
    if first:
        chunks.append((_index_array(first), _index_array(second)))
    return chunks


@dataclass
class LoweredSegment:
    """A slice of a circuit lowered to fused steps plus its record COO.

    ``meas_count`` / ``det_count`` are the measurements and detectors the
    slice itself emits; the COO arrays and ``M``/``MX`` record slots are
    *absolute* (offset by the ``meas_start`` / ``det_start`` the slice was
    lowered at), so a segment can be executed in place inside a larger
    program -- the basis of :class:`repro.sim.periodic.PeriodicProgram`.
    """

    steps: List[tuple]
    det_meas: np.ndarray
    det_row: np.ndarray
    obs_meas: np.ndarray
    obs_row: np.ndarray
    meas_count: int
    det_count: int


def lower_ops(ops, meas_start: int = 0, det_start: int = 0) -> LoweredSegment:
    """Lower an op sequence to fused steps and sparse GF(2) record maps.

    Fusion never crosses the sequence boundary (the buffer is flushed at
    the end), so lowering a circuit in segments and executing them in
    order is exactly equivalent to lowering it whole -- per-step payloads
    may fuse differently across a cut, but the applied frame updates are
    identical.
    """
    steps: List[tuple] = []
    det_meas: List[int] = []  # COO: measurement record index ...
    det_row: List[int] = []  # ... feeding this detector row
    obs_meas: List[int] = []
    obs_row: List[int] = []
    meas_cursor = meas_start
    det_cursor = det_start
    pending_kind: str = ""
    pending: List[tuple] = []  # buffered (targets, slot) runs to fuse

    def flush() -> None:
        nonlocal pending_kind, pending
        if not pending:
            return
        kind = pending_kind
        targets: List[int] = []
        for op_targets, _ in pending:
            targets.extend(op_targets)
        if kind in ("H", "S"):
            qs = _parity_reduced(targets)
            if qs.size:
                steps.append((kind, qs))
        elif kind == "R":
            steps.append(("R", _index_array(sorted(set(targets)))))
        elif kind in ("CX", "CZ", "SWAP"):
            pairs = list(zip(targets[0::2], targets[1::2]))
            for first, second in _disjoint_pair_chunks(pairs):
                steps.append((kind, first, second))
        elif kind in ("M", "MX"):
            # Consecutive measurements occupy contiguous record slots.
            steps.append((kind, _index_array(targets), pending[0][1]))
        pending_kind, pending = "", []

    for op in ops:
        name = _CANONICAL.get(op.name, op.name)
        if name in _DROPPED:
            continue
        if name == "DETECTOR":
            for rec in op.targets:
                det_meas.append(rec)
                det_row.append(det_cursor)
            det_cursor += 1
            continue
        if name == "OBSERVABLE_INCLUDE":
            index = int(op.arg)
            for rec in op.targets:
                obs_meas.append(rec)
                obs_row.append(index)
            continue
        if name in _NOISE:
            flush()
            if name in NOISE_2Q:
                firsts = _index_array(op.targets[0::2])
                seconds = _index_array(op.targets[1::2])
            else:
                firsts, seconds = _index_array(op.targets), None
            steps.append((name, firsts, seconds, noise_channel(op)))
            continue
        if name not in _FUSABLE:
            # Unsupported ops (non-Clifford gates) fail loudly, never
            # sample wrong.
            raise ValueError(f"frame simulator cannot run {name}")
        # Fusable deterministic op: merge runs of the same kind.
        if name != pending_kind:
            flush()
            pending_kind = name
        pending.append((op.targets, meas_cursor))
        if name in ("M", "MX"):
            meas_cursor += len(op.targets)
    flush()

    return LoweredSegment(
        steps=steps,
        det_meas=_index_array(det_meas),
        det_row=_index_array(det_row),
        obs_meas=_index_array(obs_meas),
        obs_row=_index_array(obs_row),
        meas_count=meas_cursor - meas_start,
        det_count=det_cursor - det_start,
    )


class CompiledProgram:
    """A circuit lowered to fused steps over bit-packed frame bitplanes.

    Steps are ``(kind, *payload)`` tuples with all index arrays
    precomputed; :meth:`run_packed` interprets them with O(ops) Python
    overhead independent of the shot count.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.num_qubits = circuit.num_qubits
        self.num_measurements = circuit.num_measurements
        self.num_detectors = circuit.num_detectors
        self.num_observables = circuit.num_observables
        segment = lower_ops(circuit.operations)
        self.steps: List[tuple] = segment.steps
        self._det_meas = segment.det_meas
        self._det_row = segment.det_row
        self._obs_meas = segment.obs_meas
        self._obs_row = segment.obs_row

    # -- execution -----------------------------------------------------------

    def run_packed(
        self, shots: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``shots`` noisy shots in the packed domain.

        Returns:
            (detectors, observables): shot-bit-packed bitplanes of shapes
            ``(num_detectors, ceil(shots/8))`` and
            ``(num_observables, ceil(shots/8))`` -- bit ``j`` of byte ``w``
            of a row is shot ``8 w + j`` (``np.packbits`` big-bitorder).
        """
        if shots < 0:
            raise ValueError("shots must be >= 0")
        words = (shots + 7) // 8
        padded = 8 * ((words + 7) // 8)  # rows double as uint64 word views
        x = np.zeros((self.num_qubits, padded), dtype=np.uint8)
        z = np.zeros((self.num_qubits, padded), dtype=np.uint8)
        flips = np.zeros((self.num_measurements, padded), dtype=np.uint8)
        x64 = x.view(np.uint64)
        z64 = z.view(np.uint64)
        f64 = flips.view(np.uint64)
        xw = x[:, :words]
        zw = z[:, :words]

        # One sparse channel draw per noise op, in op order -- the
        # byte-per-bit reference interpreter's exact stream.
        noise = SamplingNoise(rng, shots)
        execute_steps(self.steps, x64, z64, f64, xw, zw, noise)
        noise.report()

        detectors = np.zeros((self.num_detectors, padded), dtype=np.uint8)
        observables = np.zeros((self.num_observables, padded), dtype=np.uint8)
        # Sparse GF(2) record maps: one unbuffered XOR-reduce over uint64
        # words scatters every measurement-flip row into the
        # detector/observable rows it feeds.
        if self._det_meas.size:
            np.bitwise_xor.at(
                detectors.view(np.uint64), self._det_row, f64[self._det_meas]
            )
        if self._obs_meas.size:
            np.bitwise_xor.at(
                observables.view(np.uint64), self._obs_row, f64[self._obs_meas]
            )
        return detectors[:, :words], observables[:, :words]


# -- step execution ------------------------------------------------------------

# Step kinds that are stochastic channels (step[0] for every noise step is
# the canonical op name, so the op table doubles as the step-kind table).
_NOISE_KINDS = frozenset(_NOISE)

NoiseHandler = Callable[[tuple, np.ndarray, np.ndarray], None]


def execute_steps(
    steps: Sequence[tuple],
    x64: np.ndarray,
    z64: np.ndarray,
    f64: np.ndarray,
    xw: np.ndarray,
    zw: np.ndarray,
    noise: NoiseHandler,
    slot_offset: int = 0,
) -> None:
    """Interpret fused steps over packed planes with pluggable noise.

    Deterministic steps update the uint64 word views in place; each noise
    step is delegated to ``noise(step, xw, zw)`` -- a sampling handler
    drawing channel hits (:class:`SamplingNoise`) or a deterministic injector
    (:func:`injection_noise`, for DEM mechanism propagation).

    ``slot_offset`` shifts every measurement record slot, which is how a
    periodic program replays one lowered round body into successive
    record windows of the same ``flips`` plane.
    """
    for step in steps:
        kind = step[0]
        if kind == "CX":
            _, cs, ts = step
            x64[ts] ^= x64[cs]
            z64[cs] ^= z64[ts]
        elif kind == "H":
            qs = step[1]
            tmp = x64[qs].copy()
            x64[qs] = z64[qs]
            z64[qs] = tmp
        elif kind == "S":
            qs = step[1]
            z64[qs] ^= x64[qs]
        elif kind == "CZ":
            _, first, second = step
            z64[first] ^= x64[second]
            z64[second] ^= x64[first]
        elif kind == "SWAP":
            _, first, second = step
            tmp = x64[first].copy()
            x64[first] = x64[second]
            x64[second] = tmp
            tmp = z64[first].copy()
            z64[first] = z64[second]
            z64[second] = tmp
        elif kind == "R":
            qs = step[1]
            x64[qs] = 0
            z64[qs] = 0
        elif kind == "M":
            _, qs, slot = step
            slot += slot_offset
            f64[slot : slot + qs.size] = x64[qs]
        elif kind == "MX":
            _, qs, slot = step
            slot += slot_offset
            f64[slot : slot + qs.size] = z64[qs]
        elif kind in _NOISE_KINDS:
            noise(step, xw, zw)
        else:  # pragma: no cover - compile emits only the kinds above
            raise ValueError(f"unknown compiled step kind {kind!r}")


class SamplingNoise:
    """Noise handler drawing each step's channel hits with the sparse kernel.

    Every noise step is one :func:`sample_channel` call on ``rng``, in
    step order; the hits are XORed into the packed planes as single bits
    (``np.bitwise_xor.at``, so repeated targets within a step accumulate
    like the sequential per-target loop).  ``hits`` counts the hits drawn
    so far; :meth:`report` publishes them to ``repro_sim_noise_hits_total``.
    """

    def __init__(self, rng: np.random.Generator, shots: int) -> None:
        self._rng = rng
        self._shots = shots
        self.hits = 0

    def __call__(self, step: tuple, xw: np.ndarray, zw: np.ndarray) -> None:
        _, firsts, seconds, channel = step
        target, shot, code = sample_channel(
            self._rng, firsts.size, self._shots, channel
        )
        if not target.size:
            return
        self.hits += target.size
        byte = shot >> 3
        mask = (0x80 >> (shot & 7)).astype(np.uint8)
        for plane, qubits, flag in (
            (xw, firsts, 8), (zw, firsts, 4), (xw, seconds, 2), (zw, seconds, 1)
        ):
            if qubits is None:
                continue
            sel = (code & flag) != 0
            if sel.any():
                np.bitwise_xor.at(
                    plane, (qubits[target[sel]], byte[sel]), mask[sel]
                )

    def report(self) -> None:
        if _metrics.enabled():
            _NOISE_HITS.inc(self.hits)


def injection_noise(
    injections: Iterable[Tuple[np.ndarray, ...]]
) -> NoiseHandler:
    """Noise handler XORing precomputed deterministic flips, one per step.

    Each injection is ``(x_rows, x_bytes, x_masks, z_rows, z_bytes, z_masks)``
    scattering single bits into the packed X/Z planes.  DEM extraction
    uses this to propagate every error mechanism as one packed bit
    *column*: the deterministic steps conjugate all mechanisms at once
    and each noise step, instead of drawing, plants its mechanisms' Pauli
    flips at the channel's circuit position.
    """
    iterator = iter(injections)

    def apply(step: tuple, xw: np.ndarray, zw: np.ndarray) -> None:
        x_rows, x_bytes, x_masks, z_rows, z_bytes, z_masks = next(iterator)
        if x_rows.size:
            np.bitwise_xor.at(xw, (x_rows, x_bytes), x_masks)
        if z_rows.size:
            np.bitwise_xor.at(zw, (z_rows, z_bytes), z_masks)

    return apply


def bernoulli_hits(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Sorted positions of the successes among ``n`` Bernoulli(``p``) trials.

    Exact geometric gap skipping: the gaps between successive successes
    of an i.i.d. Bernoulli(p) sequence are i.i.d. Geometric(p), so the
    running sum of drawn gaps visits exactly the successes and the work
    scales with the ``n p`` expected hits, not the ``n`` trials.  Gaps
    come in blocks sized four standard deviations past the expected
    remaining count, so one block almost always covers ``[0, n)``; the
    draws taken are a pure function of ``(n, p)`` and the generator
    state.  ``p <= 0`` draws nothing and ``p >= 1`` hits every trial.
    """
    if n <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n, dtype=np.int64)
    blocks = []
    last = -1
    while True:
        mean = (n - 1 - last) * p
        gaps = rng.geometric(p, int(mean + 4.0 * math.sqrt(mean)) + 8)
        positions = np.cumsum(gaps) + last
        if positions[-1] >= n:
            blocks.append(positions[: np.searchsorted(positions, n)])
            break
        blocks.append(positions)
        last = int(positions[-1])
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def noise_channel(op) -> Tuple[float, np.ndarray, np.ndarray]:
    """A noise op as ``(hit rate, outcome CDF, flip codes)``.

    A hit picks outcome ``searchsorted(cdf, u, side="right")`` for a
    uniform ``u``, i.e. outcome ``k`` with probability
    ``cdf[k] - cdf[k-1]`` (``cdf`` omits the final 1; zero-probability
    outcomes are never picked).  ``DEPOLARIZE1/2`` split their hits
    evenly over the 3 / 15 non-identity Paulis; ``PAULI_CHANNEL_1/2``
    fire with the sum of their per-Pauli ``args`` and split by them.
    Single-outcome channels have an empty CDF.
    """
    name = op.name
    if name in _PAULI_ERRORS:
        return float(op.arg), _NO_CDF, _PAULI_ERRORS[name]
    codes = _CODES_2Q if name in NOISE_2Q else _CODES_1Q
    if name in CHANNEL_ARGS:
        cumulative = np.cumsum(np.asarray(op.args, dtype=np.float64))
        rate = float(cumulative[-1])
    else:
        cumulative = np.arange(1.0, codes.size + 1.0)
        rate = float(op.arg)
    if rate <= 0.0:
        return 0.0, _NO_CDF, codes
    return rate, cumulative[:-1] / cumulative[-1], codes


def sample_channel(
    rng: np.random.Generator,
    targets: int,
    shots: int,
    channel: Tuple[float, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one noise step's hits over ``targets x shots`` trials.

    Returns ``(target, shot, code)`` arrays, one entry per hit: the
    target (or pair) index within the step, the shot, and the flip code
    (see :func:`noise_channel`).  Hit positions come from
    :func:`bernoulli_hits` over the target-major ``(targets, shots)``
    grid, then one uniform per hit picks its outcome.  Both the packed
    and the reference sampler make exactly these calls, in op order.
    """
    rate, cdf, codes = channel
    hits = bernoulli_hits(rng, targets * shots, rate)
    if not hits.size:
        return hits, hits, np.empty(0, dtype=np.uint8)
    target, shot = np.divmod(hits, shots)
    if cdf.size:
        code = codes[np.searchsorted(cdf, rng.random(hits.size), side="right")]
    else:
        code = np.full(hits.size, codes[0], dtype=np.uint8)
    return target, shot, code


def transpose_packed(planes: np.ndarray, count: int) -> np.ndarray:
    """Re-pack ``(rows, ceil(count/8))`` bitplanes as per-item keys.

    Args:
        planes: bit-packed matrix whose packed axis holds ``count`` items.
        count: number of valid bits along the packed axis (trailing pad
            bits are discarded).

    Returns:
        ``(count, ceil(rows/8))`` uint8 array: item ``i``'s row holds the
        original column ``i`` bit-packed -- e.g. shot-major detector keys
        ready for dedup, from detector-major sample bitplanes.
    """
    rows, width = planes.shape
    if rows == 0:
        return np.zeros((count, 0), dtype=np.uint8)
    # Transpose the packed bytes first (8x less data than the bits).  Bit
    # j (MSB first) of byte w is item 8 w + j, so packing bit plane j of
    # the contiguous byte-major block along its rows yields the keys of
    # items 8 w + j for every w at once.
    byte_major = np.ascontiguousarray(planes.T)
    key_width = (rows + 7) // 8
    keys = np.empty((width, 8, key_width), dtype=np.uint8)
    for bit in range(8):
        keys[:, bit] = np.packbits((byte_major >> (7 - bit)) & 1, axis=1)
    return keys.reshape(8 * width, key_width)[:count]
