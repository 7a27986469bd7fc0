"""Compiled circuit programs: fault-table shot sampling and packed frame steps.

A shot's detector and observable bits are linear over GF(2) in the Pauli
faults drawn for it: the Pauli frame starts at zero, and every gate,
reset and measurement acts on it linearly.  So a shot is exactly the XOR
of the symptoms of its noise hits, and nothing needs propagating per shot:

* **Fault-table sampling** -- a shot source is a draw plan over a
  :class:`~repro.noise.dem.FaultTable` (every fault's detectors and
  observables as CSR rows).  A plan entry is ``(rate, outcome CDF,
  fault row per target x outcome)``; :func:`draw_hits` draws every
  entry's hits and returns ``(fault row, shot)`` per hit, and
  :func:`symptom_lists` XORs the hit rows into a :class:`DefectBatch`:
  sorted ``(shot, detector)`` defect lists plus a per-shot observable
  table.  :class:`CompiledProgram` plans one entry per
  noise op (:func:`noise_channel`) over the circuit's table, propagated
  once per circuit by DEM extraction; the importance sampler
  (:mod:`repro.estimator.rare`) plans one entry per group of equally
  likely mechanisms over :meth:`DetectorErrorModel.fault_table
  <repro.noise.dem.DetectorErrorModel.fault_table>`.
* **Sparse noise** -- a plan entry touches only the (target, shot)
  positions where it fires.  :func:`bernoulli_hits` draws those
  positions exactly by geometric gap skipping, so an op costs O(expected
  hits) instead of one uniform per target per shot; outcomes (X/Y/Z, or
  one of the 15 two-qubit Paulis, or a biased channel's Pauli) are drawn
  for the hits only (:func:`sample_channel`).  The byte-per-bit
  reference interpreter of the test oracles (``tests/oracles.py``) makes
  the same :func:`sample_channel` calls in op order and propagates the
  same hits frame by frame, so for the same seed the two produce
  *bit-identical* detector/observable samples.  The equivalence is
  property-tested in ``tests/test_sim_compiled.py``; the circuit and
  importance streams are pinned by digest in
  ``tests/test_sample_stream_pinned.py`` and
  ``tests/test_rare_stream_pinned.py``; the channel
  statistics are checked against the channel probabilities in
  ``tests/test_noise_sampling_stats.py``.
* **Packed frame steps** -- :func:`lower_ops` lowers a circuit into a
  flat list of fused steps (``S``/``S_DAG`` and ``R``/``RX``
  canonicalized, repeated involutions parity-reduced, target lists
  precomputed as numpy index arrays split into conflict-free chunks) plus
  sparse GF(2) COO maps from measurement records to detectors and
  observables.  :func:`execute_steps` runs them over bit-packed X/Z
  planes, 64 columns per ALU op.  DEM extraction (:mod:`repro.noise.dem`)
  runs them once per circuit with one bit column per fault, which is
  where the fault table comes from.

Defect lists are the one shot format: at the paper's low ``p`` a shot
is about 1% defects, so the decoders take the lists as drawn
(:meth:`~repro.decoder.base.BatchDecoder.decode_defects`) and no dense
shot matrix is built between draw and decode.  The packed layouts --
detector-major planes (:meth:`CompiledProgram.run_packed`) and
shot-major keys (:meth:`DefectBatch.packed`) -- are set from the lists
by :func:`pack_bits` for the callers that want bits;
:func:`transpose_packed` converts between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.noise.dem import FaultTable, whole_circuit_faults
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
    "Noise-channel hits drawn by the circuit sampler (sample_defects).",
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
# The outcome CDF of a single-outcome channel or importance group.
NO_CDF = np.empty(0, dtype=np.float64)
_NO_HITS = np.empty(0, dtype=np.int64)
# Bit mask of item 8 w + j within byte w (np.packbits big bit order).
_BIT = np.array([0x80 >> j for j in range(8)], dtype=np.uint8)


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
    """A circuit lowered to fused steps plus its sparse record COO maps.

    ``det_meas[i]`` (a measurement record) feeds detector ``det_row[i]``;
    ``obs_meas`` / ``obs_row`` map records to observables likewise.
    """

    steps: List[tuple]
    det_meas: np.ndarray
    det_row: np.ndarray
    obs_meas: np.ndarray
    obs_row: np.ndarray


def lower_ops(ops) -> LoweredSegment:
    """Lower an op sequence to fused steps and sparse GF(2) record maps.

    Runs of the same deterministic kind fuse into one step; each noise op
    becomes one ``(name,)`` step, never fused, marking where
    :func:`execute_steps` injects its faults.
    """
    steps: List[tuple] = []
    det_meas: List[int] = []  # COO: measurement record index ...
    det_row: List[int] = []  # ... feeding this detector row
    obs_meas: List[int] = []
    obs_row: List[int] = []
    meas_cursor = 0
    det_cursor = 0
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
            steps.append((name,))
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
    )


class DefectBatch(NamedTuple):
    """A batch of shots as sorted defect lists.

    Shot ``shot[i]`` has detector ``detector[i]`` flipped; the entries
    are sorted by shot, then detector, each pair once.  ``observables``
    is the ``(shots, num_observables)`` uint8 table of observable flips;
    ``log_weights`` holds an importance-sampled batch's per-shot log
    likelihood ratios (``None`` for circuit shots, which weigh 1).
    """

    shot: np.ndarray
    detector: np.ndarray
    observables: np.ndarray
    log_weights: Optional[np.ndarray] = None

    @property
    def shots(self) -> int:
        return self.observables.shape[0]

    def packed(self, num_detectors: int) -> Tuple[np.ndarray, np.ndarray]:
        """Bit-packed per-shot keys: ``(shots, ceil(num_detectors/8))``
        detector and ``(shots, ceil(num_observables/8))`` observable rows,
        each packed with ``np.packbits`` (big bit order)."""
        return (
            pack_bits(self.shot, self.detector, self.shots, num_detectors),
            np.packbits(self.observables, axis=1),
        )


class CompiledProgram:
    """A circuit's draw plan and fault table: a defect-list shot sampler.

    Args:
        circuit: the circuit to sample.
        faults: its fault table; by default every fault is propagated
            through the whole circuit (:func:`~repro.noise.dem.whole_circuit_faults`).
            :func:`repro.sim.periodic.compile_program` passes the
            memoized :func:`~repro.noise.dem.circuit_faults` table.
    """

    def __init__(self, circuit: Circuit, faults: Optional[FaultTable] = None) -> None:
        self.num_qubits = circuit.num_qubits
        self.num_measurements = circuit.num_measurements
        self.num_detectors = circuit.num_detectors
        self.num_observables = circuit.num_observables
        if faults is None:
            faults = whole_circuit_faults(circuit)
        rows = np.arange(len(faults))
        self._plan: List[tuple] = []  # draw plan entries, see draw_hits
        first = 0
        for op in circuit.operations:
            if op.name not in _NOISE:
                continue
            rate, cdf, codes = noise_channel(op)
            targets = len(op.targets) // (2 if op.name in NOISE_2Q else 1)
            end = first + targets * codes.size
            if rate > 0.0 and end > first:  # anything else draws nothing
                self._plan.append((rate, cdf, rows[first:end]))
            first = end
        if first != len(faults):
            raise ValueError(
                f"fault table has {len(faults)} rows; the circuit's noise "
                f"ops have {first} faults"
            )
        self._faults = faults

    def sample_defects(self, shots: int, rng: np.random.Generator) -> DefectBatch:
        """Sample ``shots`` noisy shots as defect lists.

        :func:`draw_hits` over the draw plan, then :func:`symptom_lists`
        of the hit faults.
        """
        if shots < 0:
            raise ValueError("shots must be >= 0")
        row, shot = draw_hits(rng, self._plan, shots)
        if _metrics.enabled():
            _NOISE_HITS.inc(row.size)
        return symptom_lists(
            self._faults, self.num_detectors, self.num_observables,
            row, shot, shots,
        )

    def run_packed(
        self, shots: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``shots`` noisy shots as detector-major bitplanes.

        The bits of :meth:`sample_defects` for the same generator.

        Returns:
            (detectors, observables): shot-bit-packed bitplanes of shapes
            ``(num_detectors, ceil(shots/8))`` and
            ``(num_observables, ceil(shots/8))`` -- bit ``j`` of byte ``w``
            of a row is shot ``8 w + j`` (``np.packbits`` big-bitorder).
        """
        batch = self.sample_defects(shots, rng)
        return (
            pack_bits(batch.detector, batch.shot, self.num_detectors, shots),
            np.packbits(batch.observables.T, axis=1),
        )


def draw_hits(
    rng: np.random.Generator, plan: Sequence[tuple], shots: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw a plan's hits over ``shots`` shots: ``(fault row, shot)`` per hit.

    A plan entry is ``(rate, cdf, rows)``: a channel of
    :func:`noise_channel` form whose hits pick fault ``rows[target *
    outcomes + outcome]``, with ``outcomes = cdf.size + 1`` and
    ``rows.size // outcomes`` targets.  A noise op's rows are its faults
    ``first + arange(targets * outcomes)``; an importance group's are its
    mechanisms, with an empty CDF (:data:`NO_CDF`).  One
    :func:`sample_channel` call per entry, in plan order; the hits
    concatenate in that order.
    """
    hit_rows: List[np.ndarray] = []
    hit_shots: List[np.ndarray] = []
    for entry in plan:
        _, cdf, rows = entry
        outcomes = cdf.size + 1
        target, shot, outcome = sample_channel(
            rng, rows.size // outcomes, shots, entry
        )
        if target.size:
            hit_rows.append(rows[outcomes * target + outcome])
            hit_shots.append(shot)
    if not hit_rows:
        return _NO_HITS, _NO_HITS
    return np.concatenate(hit_rows), np.concatenate(hit_shots)


def symptom_lists(
    table: FaultTable,
    num_detectors: int,
    num_observables: int,
    row: np.ndarray,
    shot: np.ndarray,
    shots: int,
) -> DefectBatch:
    """The shots of hits ``(row, shot)`` of ``table``: hit ``i`` flips the
    symptoms of fault ``row[i]`` in shot ``shot[i]``."""
    defects = _odd_entries(table.det_start, table.det_index, num_detectors, row, shot)
    flips = _odd_entries(table.obs_start, table.obs_index, num_observables, row, shot)
    observables = np.zeros(shots * num_observables, dtype=np.uint8)
    observables[flips] = 1
    return DefectBatch(
        *np.divmod(defects, max(num_detectors, 1)),
        observables.reshape(shots, num_observables),
    )


def _odd_entries(
    start: np.ndarray,
    index: np.ndarray,
    width: int,
    fault: np.ndarray,
    shot: np.ndarray,
) -> np.ndarray:
    """Sorted keys ``shot * width + index`` of the CSR entries that hits
    ``(fault, shot)`` flip an odd number of times.

    The hits' CSR entries are gathered at once and sorted by key; a run
    of equal keys is one entry flipped that many times, so keeping the
    odd runs is their XOR, and a fault hit twice in one shot cancels as
    in frame propagation.
    """
    begin = start[fault]
    count = start[fault + 1] - begin
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    if not total:
        return _NO_HITS
    entry = np.arange(total) + np.repeat(begin - (ends - count), count)
    keys = np.repeat(shot * width, count) + index[entry]
    keys.sort()
    repeated = keys[1:] == keys[:-1]
    if not repeated.any():
        return keys
    run = np.flatnonzero(np.append(True, ~repeated))
    return keys[run[np.diff(run, append=keys.size) % 2 == 1]]


def pack_bits(
    major: np.ndarray, minor: np.ndarray, rows: int, count: int
) -> np.ndarray:
    """``(rows, ceil(count/8))`` uint8 rows with bit ``minor[i]`` of row
    ``major[i]`` set (``np.packbits`` big bit order), for distinct
    ``(major, minor)`` pairs."""
    width = (count + 7) // 8
    out = np.zeros(rows * width, dtype=np.uint8)
    np.bitwise_or.at(out, major * width + (minor >> 3), _BIT[minor & 7])
    return out.reshape(rows, width)


# -- packed frame steps -------------------------------------------------------

# Step kinds that are stochastic channels (step[0] for every noise step is
# the canonical op name, so the op table doubles as the step-kind table).
_NOISE_KINDS = frozenset(_NOISE)


def execute_steps(
    steps: Sequence[tuple],
    x: np.ndarray,
    z: np.ndarray,
    flips: np.ndarray,
    injections: Iterable[Tuple[np.ndarray, ...]],
) -> None:
    """Propagate packed frames through fused steps, injecting Pauli flips.

    ``x``/``z`` (per qubit) and ``flips`` (per measurement record) are
    uint8 bitplanes whose rows are whole uint64 words; deterministic
    steps update the word views in place.  Noise step ``i`` XORs
    injection ``i``, ``(x_rows, x_bytes, x_masks, z_rows, z_bytes,
    z_masks)``, into single bits of the X/Z planes.  DEM extraction uses
    this to propagate every fault as one bit column: the deterministic
    steps conjugate all faults at once, and each noise step plants its
    faults' Pauli flips at the channel's circuit position.
    """
    x64 = x.view(np.uint64)
    z64 = z.view(np.uint64)
    f64 = flips.view(np.uint64)
    injections = iter(injections)
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
            f64[slot : slot + qs.size] = x64[qs]
        elif kind == "MX":
            _, qs, slot = step
            f64[slot : slot + qs.size] = z64[qs]
        elif kind in _NOISE_KINDS:
            x_rows, x_bytes, x_masks, z_rows, z_bytes, z_masks = next(injections)
            if x_rows.size:
                np.bitwise_xor.at(x, (x_rows, x_bytes), x_masks)
            if z_rows.size:
                np.bitwise_xor.at(z, (z_rows, z_bytes), z_masks)
        else:  # pragma: no cover - lower_ops emits only the kinds above
            raise ValueError(f"unknown compiled step kind {kind!r}")


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
        positions = gaps.cumsum() + last
        if positions[-1] >= n:
            blocks.append(positions[: positions.searchsorted(n)])
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
        return float(op.arg), NO_CDF, _PAULI_ERRORS[name]
    codes = _CODES_2Q if name in NOISE_2Q else _CODES_1Q
    if name in CHANNEL_ARGS:
        cumulative = np.cumsum(np.asarray(op.args, dtype=np.float64))
        rate = float(cumulative[-1])
    else:
        cumulative = np.arange(1.0, codes.size + 1.0)
        rate = float(op.arg)
    if rate <= 0.0:
        return 0.0, NO_CDF, codes
    return rate, cumulative[:-1] / cumulative[-1], codes


def sample_channel(
    rng: np.random.Generator,
    targets: int,
    shots: int,
    channel: Tuple[float, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one noise op's hits over ``targets x shots`` trials.

    Returns ``(target, shot, outcome)`` arrays, one entry per hit: the
    target (or pair) index within the op, the shot, and the outcome
    index into the channel's flip codes (see :func:`noise_channel`), which
    is also the outcome order of
    :func:`~repro.noise.dem.enumerate_mechanisms`.  Hit positions come
    from :func:`bernoulli_hits` over the target-major ``(targets, shots)``
    grid, then one uniform per hit picks its outcome.  Both the packed
    and the reference sampler make exactly these calls, in op order.
    """
    rate, cdf, _ = channel
    hits = bernoulli_hits(rng, targets * shots, rate)
    if not hits.size:
        return hits, hits, hits
    target, shot = np.divmod(hits, shots)
    if cdf.size:
        outcome = cdf.searchsorted(rng.random(hits.size), side="right")
    else:
        outcome = np.zeros(hits.size, dtype=np.int64)
    return target, shot, outcome


def transpose_packed(planes: np.ndarray, count: int) -> np.ndarray:
    """Re-pack ``(rows, ceil(count/8))`` bitplanes as per-item keys.

    Args:
        planes: bit-packed matrix whose packed axis holds ``count`` items.
        count: number of valid bits along the packed axis (trailing pad
            bits are discarded).

    Returns:
        ``(count, ceil(rows/8))`` uint8 array: item ``i``'s row holds the
        original column ``i`` bit-packed -- e.g. shot-major detector rows
        for ``decode_packed``, from detector-major sample bitplanes.
    """
    return np.packbits(np.unpackbits(planes, axis=1, count=count).T, axis=1)
