"""Detector-error-model extraction and weighted decoding-graph lowering.

The detector error model (DEM) is the contract between a noisy circuit and
its decoders: for every elementary error mechanism -- one Pauli outcome of
one noise channel at one circuit location -- it records which detectors
and logical observables flip when that mechanism fires, together with the
firing probability.  Mechanisms with identical symptoms are merged by XOR
convolution.

Extraction propagates each mechanism through the Clifford circuit with the
packed frame steps of :mod:`repro.sim.compiled`, one bit column per
mechanism: the mechanism's Pauli is injected into its column at the
channel's position, all deterministic steps conjugate every column at
once, and the column's final detector/observable flips are the symptom.
This covers every channel of the op table (:data:`repro.sim.ops.NOISE`),
including the biased ``PAULI_CHANNEL_1`` / ``PAULI_CHANNEL_2`` whose
per-outcome probabilities ride in ``Operation.args``.

:func:`circuit_faults` runs that propagation over a few rounds of a
circuit with a certified repeated round and unrolls the rest (the
periodic path); any other circuit is propagated whole (the linear path),
and the table's ``periodic_fallback`` names the certificate that failed.
The result is a :class:`FaultTable`: every fault's symptom, unmerged, in
circuit order.  It is memoized per circuit fingerprint, so one
propagation per circuit serves both consumers: :func:`extract_dem` merges
it into the model, and the packed samplers (:mod:`repro.sim.compiled`)
XOR the rows of the faults they draw.  The tests hold both paths equal
to a byte-per-bit, row-per-mechanism reference propagation.

Lowering: :func:`weighted_graph` turns a DEM into the matching decoders'
:class:`~repro.decoder.graph.DecodingGraph`, whose edges carry
log-likelihood-ratio weights ``log((1-p)/p)`` derived from the merged
mechanism probabilities -- so a biased or movement-aware model reshapes
the decoders' metric with zero decoder changes.  :func:`uniform_graph`
builds the same topology with every edge pinned to one probability: the
hand-built uniform-weight graph the repo's decoders historically matched
on, kept as the verification baseline the weighted graph must beat.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import KeyedCache, register_cache
from repro.obs import metrics as _metrics
from repro.obs.logs import get_logger
from repro.obs.spans import span

if TYPE_CHECKING:  # pragma: no cover - type-only; see the lazy imports below
    from repro.sim.circuit import Circuit

_LOG = get_logger("repro.noise.dem")

# Every fallback of extract_dem from the periodic to the linear path is
# counted by certification-failure reason; the reason also rides on the
# extracted model (DetectorErrorModel.periodic_fallback).
_PERIODIC_FALLBACKS = _metrics.counter(
    "repro_periodic_fallback_total",
    "Periodic DEM extractions that fell back to the linear path, by reason.",
    ("reason",),
)
_EXTRACT_SECONDS = _metrics.counter(
    "repro_dem_extract_seconds_total",
    "Wall-clock seconds spent extracting detector error models, by path.",
    ("method",),
)

# NOTE: this module sits *below* repro.sim in the import graph
# (repro.sim.frame re-exports the DEM classes defined here), so importing
# repro.sim.* at module level would be circular; the op tables are pulled
# in lazily inside the functions instead.


@dataclass(frozen=True)
class ErrorMechanism:
    """One independent error source of the detector error model.

    Attributes:
        probability: chance the mechanism fires in one shot.
        detectors: sorted indices of detectors it flips.
        observables: sorted indices of logical observables it flips.
    """

    probability: float
    detectors: Tuple[int, ...]
    observables: Tuple[int, ...]


@dataclass
class DetectorErrorModel:
    """Collection of independent error mechanisms plus circuit metadata.

    ``periodic_fallback`` is set by :func:`extract_dem` when the periodic
    extraction failed certification and the model came from the linear
    path: ``"no_period"``, ``"few_reps"``, ``"no_round_measurements"``,
    ``"epilogue_record_ref"``, ``"uncertified_shift"``,
    ``"span_exceeds_certified"`` or ``"prologue_span"``.  It describes how
    the model was built, not the model, so it takes no part in equality.
    """

    mechanisms: List[ErrorMechanism]
    num_detectors: int
    num_observables: int
    periodic_fallback: Optional[str] = field(default=None, compare=False)

    def merged(self) -> "DetectorErrorModel":
        """Combine mechanisms with identical symptoms.

        Two independent sources with the same symptom act like one source
        firing with probability p = p1 (1 - p2) + p2 (1 - p1).
        """
        combined: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], float] = {}
        for mech in self.mechanisms:
            key = (mech.detectors, mech.observables)
            prior = combined.get(key, 0.0)
            combined[key] = prior * (1 - mech.probability) + mech.probability * (1 - prior)
        merged = [
            ErrorMechanism(p, dets, obs)
            for (dets, obs), p in sorted(combined.items())
            if p > 0
        ]
        return DetectorErrorModel(
            merged, self.num_detectors, self.num_observables,
            periodic_fallback=self.periodic_fallback,
        )

    def reweighted(
        self, inflation: float, *, max_probability: float = 0.5
    ) -> "DetectorErrorModel":
        """Uniformly inflate every mechanism probability (importance proposal).

        Each mechanism's firing probability becomes
        ``min(inflation * p, max_probability)``: the proposal model the
        rare-event sampler (:mod:`repro.estimator.rare`) draws shots from.
        The cap keeps the proposal inside (0, 0.5] -- above 0.5 a
        mechanism's LLR decoding weight goes negative and
        ``dem_consistency`` rejects the model.  Capping does not bias the
        estimator: the per-shot likelihood-ratio weight is computed from
        the *actual* capped probabilities, so any proposal with support
        wherever the original has support stays exact; the cap only trades
        a little variance on the capped mechanisms.

        Symptom topology (detector/observable sets, mechanism order) is
        preserved exactly, so for disjoint-symptom models ``reweighted``
        commutes with :meth:`merged`.
        """
        if inflation <= 0:
            raise ValueError("inflation must be > 0")
        if not 0.0 < max_probability <= 0.5:
            raise ValueError("max_probability must be in (0, 0.5]")
        mechanisms = [
            ErrorMechanism(
                min(mech.probability * inflation, max_probability),
                mech.detectors,
                mech.observables,
            )
            for mech in self.mechanisms
        ]
        return DetectorErrorModel(
            mechanisms, self.num_detectors, self.num_observables
        )


@dataclass(frozen=True, eq=False)
class FaultTable:
    """Every fault of a circuit with its symptom, unmerged.

    One row per fault -- one Pauli outcome of one noise channel at one
    target or pair -- in :func:`enumerate_mechanisms` order: per noise op
    in circuit order, per target, per outcome.  Fault ``f`` fires with
    ``probabilities[f]`` and flips the detectors
    ``det_index[det_start[f]:det_start[f + 1]]`` and the observables
    ``obs_index[obs_start[f]:obs_start[f + 1]]`` (CSR, sorted).
    ``periodic_fallback`` names the certificate the periodic extraction
    failed (see :class:`DetectorErrorModel`), ``None`` when it held.
    """

    probabilities: np.ndarray
    det_start: np.ndarray
    det_index: np.ndarray
    obs_start: np.ndarray
    obs_index: np.ndarray
    periodic_fallback: Optional[str] = None

    def __len__(self) -> int:
        return self.probabilities.size

    def mechanisms(self) -> List[ErrorMechanism]:
        """One unmerged :class:`ErrorMechanism` per fault, in row order."""
        return [
            ErrorMechanism(prob, dets, obs)
            for prob, dets, obs in zip(
                self.probabilities.tolist(),
                _csr_tuples(self.det_start, self.det_index),
                _csr_tuples(self.obs_start, self.obs_index),
            )
        ]


def _counts_index(groups: Sequence[Tuple[int, ...]]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-group lengths and the concatenated indices of index tuples."""
    counts = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    index = np.fromiter(
        itertools.chain.from_iterable(groups), dtype=np.intp, count=int(counts.sum())
    )
    return counts, index


def _starts(counts: np.ndarray) -> np.ndarray:
    """CSR row starts (with the closing end) of per-row lengths."""
    start = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=start[1:])
    return start


def _csr_tuples(start: np.ndarray, index: np.ndarray) -> List[Tuple[int, ...]]:
    """The index tuple of every CSR row."""
    values = index.tolist()
    bounds = start.tolist()
    return [tuple(values[a:b]) for a, b in zip(bounds, bounds[1:])]


def enumerate_mechanisms(circuit: "Circuit"):
    """List (op, probability, x_qubits, z_qubits, tag) for every outcome.

    One entry per elementary Pauli outcome per channel target, in circuit
    order; the probabilities come straight from the channel parameters
    (``arg`` for the symmetric channels, ``args`` for the biased ones).

    Every op classified as noise by :data:`repro.sim.ops.NOISE` must be
    handled here: an unrecognized channel raises instead of being silently
    skipped, because a skipped channel yields a DEM that underweights the
    true error process -- decoders would quietly decode against the wrong
    metric (a wrong logical error rate, not a crash).
    """
    from repro.sim.ops import NOISE, PAULI_1Q, PAULI_2Q

    mechanisms = []
    for op in circuit.operations:
        if op.name not in NOISE:
            continue
        if op.name == "X_ERROR":
            for q in op.targets:
                mechanisms.append((op, op.arg, (q,), (), "X"))
        elif op.name == "Z_ERROR":
            for q in op.targets:
                mechanisms.append((op, op.arg, (), (q,), "Z"))
        elif op.name == "Y_ERROR":
            for q in op.targets:
                mechanisms.append((op, op.arg, (q,), (q,), "Y"))
        elif op.name in ("DEPOLARIZE1", "PAULI_CHANNEL_1"):
            probs = (
                (op.arg / 3.0,) * 3 if op.name == "DEPOLARIZE1" else op.args
            )
            for q in op.targets:
                for (x_bit, z_bit), p in zip(PAULI_1Q, probs):
                    mechanisms.append(
                        (op, p, (q,) if x_bit else (), (q,) if z_bit else (), "D1")
                    )
        elif op.name in ("DEPOLARIZE2", "PAULI_CHANNEL_2"):
            probs = (
                (op.arg / 15.0,) * 15 if op.name == "DEPOLARIZE2" else op.args
            )
            for a, b in zip(op.targets[0::2], op.targets[1::2]):
                for ((xa, za), (xb, zb)), p in zip(PAULI_2Q, probs):
                    xs = tuple(q for q, bit in ((a, xa), (b, xb)) if bit)
                    zs = tuple(q for q, bit in ((a, za), (b, zb)) if bit)
                    mechanisms.append((op, p, xs, zs, "D2"))
        else:
            raise ValueError(
                f"noise op {op.name!r} has no DEM mechanism enumeration; "
                f"extending repro.sim.ops.NOISE requires extending "
                f"enumerate_mechanisms in lockstep"
            )
    return mechanisms


def extract_dem(circuit: "Circuit", *, verify: bool = False) -> DetectorErrorModel:
    """The circuit's DEM: its :func:`circuit_faults` table, merged.

    A circuit with a verified repeated round takes the periodic
    extraction: mechanisms are enumerated over a few rounds and unrolled
    by shifting detector references, O(1) in the round count.  Any other
    circuit, or a failed certification, takes the linear propagation and
    records why in the model's ``periodic_fallback`` (and in
    ``repro_periodic_fallback_total``, once per call).  Both paths yield
    *identical* models: the periodic unrolling emits mechanisms in linear
    circuit order with the same float probabilities, so the
    XOR-convolution in :meth:`DetectorErrorModel.merged` accumulates
    bit-identically.

    Args:
        circuit: the noisy circuit.
        verify: check the extracted model with the ``dem_consistency``
            diagnostics of :mod:`repro.analysis` (detector coverage,
            probability sanity, undetectable logical mechanisms);
            error-severity findings raise
            :class:`~repro.analysis.VerificationError` before any
            consumer can decode against a malformed model.
    """
    start = time.perf_counter()
    faults = circuit_faults(circuit)
    reason = faults.periodic_fallback
    if reason is not None:
        _PERIODIC_FALLBACKS.labels(reason=reason).inc()
        _LOG.debug("periodic DEM extraction fell back to linear: %s", reason)
    _EXTRACT_SECONDS.labels(method="linear" if reason else "periodic").inc(
        time.perf_counter() - start
    )
    dem = _assemble(circuit, faults.mechanisms(), reason)
    if verify:
        from repro.analysis import verify_dem

        verify_dem(dem)
    return dem


def _assemble(
    circuit: "Circuit",
    mechanisms: List[ErrorMechanism],
    periodic_fallback: Optional[str] = None,
) -> DetectorErrorModel:
    """The merged model of a mechanism list (symptomless ones dropped)."""
    return DetectorErrorModel(
        [m for m in mechanisms if m.detectors or m.observables],
        circuit.num_detectors,
        circuit.num_observables,
        periodic_fallback=periodic_fallback,
    ).merged()


def circuit_faults(circuit: "Circuit") -> FaultTable:
    """The circuit's fault table, propagated once per circuit fingerprint.

    The periodic extraction's unrolled table when its certificates hold,
    else the whole-circuit propagation (:func:`whole_circuit_faults`)
    carrying the failed certificate.  Memoized by content fingerprint
    (registered with :func:`repro.core.cache.register_cache`), so DEM
    extraction and program compilation share one propagation.
    """
    return _FAULT_CACHE(circuit)


def _circuit_faults_uncached(circuit: "Circuit") -> FaultTable:
    table, reason = _periodic_faults(circuit)
    if table is None:
        with span("dem.linear_mechanisms"):
            table = whole_circuit_faults(circuit, reason)
    return table


def _fingerprint(circuit: "Circuit") -> str:
    from repro.sim.periodic import circuit_fingerprint

    return circuit_fingerprint(circuit)


_FAULT_CACHE = KeyedCache(_fingerprint, _circuit_faults_uncached)
register_cache("repro.noise.dem.circuit_faults", _FAULT_CACHE)


def whole_circuit_faults(
    circuit: "Circuit", periodic_fallback: Optional[str] = None
) -> FaultTable:
    """Fault table with every fault propagated through the whole circuit."""
    mechanisms = enumerate_mechanisms(circuit)
    return FaultTable(
        np.array([prob for _, prob, _, _, _ in mechanisms], dtype=np.float64),
        *_mechanism_symptoms_packed(circuit, mechanisms),
        periodic_fallback=periodic_fallback,
    )


# -- periodic extraction -------------------------------------------------------
#
# A circuit with a verified repeated round (repro.sim.periodic) has a
# shift-invariant DEM interior: a mechanism in round body replay j flips
# the same detector pattern as its replay-0 twin, offset by j rounds.
# Extraction therefore builds a *surrogate* circuit with only
# _SURROGATE_REPS replays (epilogue record references rebased), computes
# its mechanisms with the same packed propagation the linear path runs
# on the whole circuit, certifies shift invariance inside the
# surrogate, and unrolls: prologue mechanisms verbatim, the certified
# bulk round replicated with shifted detector rows, the trailing
# epilogue-influenced rounds and the epilogue shifted to their full-
# circuit positions.  Any violated certificate falls back to the linear
# path (correctness never depends on the periodic fast path).

# Replays in the surrogate circuit.  Large enough that after the leading
# certified rounds there is room for one epilogue-influenced trailing
# round plus span-guard headroom; small enough that extraction stays
# O(1) in the full round count.
_SURROGATE_REPS = 5


def _periodic_faults(
    circuit: "Circuit",
) -> Tuple[Optional[FaultTable], Optional[str]]:
    """Fault table via periodic unrolling: ``(table, reason)``.

    ``(table, None)`` on success; ``(None, reason)`` when a certification
    failed and the caller must fall back to the linear path (reasons are
    enumerated in :class:`DetectorErrorModel`).

    Emits faults in linear circuit order (prologue, replay 0..k-1,
    epilogue, preserving within-round enumeration order) with the exact
    channel probability floats, so the table equals the whole-circuit
    one row for row and downstream ``merged()`` accumulation is
    bit-identical to the linear path's.
    """
    from repro.sim.circuit import Circuit
    from repro.sim.periodic import detect_period

    spec = detect_period(circuit)
    if spec is None:
        return None, "no_period"
    if spec.reps < _SURROGATE_REPS:
        return None, "few_reps"
    if spec.meas_per_rep <= 0 or spec.det_per_rep <= 0:
        return None, "no_round_measurements"
    reps, surrogate_reps = spec.reps, _SURROGATE_REPS
    ops = circuit.operations
    start, length = spec.start, spec.length
    meas_start = spec.meas_start
    meas_shift = (surrogate_reps - reps) * spec.meas_per_rep

    # Surrogate: prologue + _SURROGATE_REPS replays + epilogue, with
    # epilogue record references into the body window rebased onto the
    # shorter body.  References below the dropped replays cannot be
    # verified in the surrogate -> fall back.
    surrogate = Circuit()
    regions: List[object] = []  # per-op region: "prologue" | replay j | "epilogue"
    try:
        for op in ops[:start]:
            surrogate.append(op.name, op.targets, op.arg, op.args)
            regions.append("prologue")
        for j in range(surrogate_reps):
            offset = j * spec.meas_per_rep
            for op in ops[start : start + length]:
                if op.name in ("DETECTOR", "OBSERVABLE_INCLUDE"):
                    targets = tuple(t + offset for t in op.targets)
                else:
                    targets = op.targets
                surrogate.append(op.name, targets, op.arg, op.args)
                regions.append(j)
        for op in ops[start + reps * length :]:
            if op.name in ("DETECTOR", "OBSERVABLE_INCLUDE"):
                targets = []
                for t in op.targets:
                    if t >= meas_start:
                        if t + meas_shift < meas_start:
                            return None, "epilogue_record_ref"
                        targets.append(t + meas_shift)
                    else:
                        targets.append(t)
                surrogate.append(op.name, tuple(targets), op.arg, op.args)
            else:
                surrogate.append(op.name, op.targets, op.arg, op.args)
            regions.append("epilogue")
    except ValueError:
        return None, "epilogue_record_ref"

    mechanisms = enumerate_mechanisms(surrogate)
    det_start, det_index, obs_start, obs_index = _mechanism_symptoms_packed(
        surrogate, mechanisms
    )
    symptoms = zip(
        _csr_tuples(det_start, det_index), _csr_tuples(obs_start, obs_index)
    )
    region_of = {id(op): region for op, region in zip(surrogate.operations, regions)}
    mech_regions = [region_of[id(op)] for op, _, _, _, _ in mechanisms]

    # Group per region, normalizing body detector rows to replay 0.
    prologue_rows = spec.det_start
    det_per_rep = spec.det_per_rep
    prologue_mechs: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = []
    epilogue_mechs: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = []
    replay_seqs: List[List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]]] = [
        [] for _ in range(surrogate_reps)
    ]
    for (_, prob, _, _, _), (dets, obs), region in zip(
        mechanisms, symptoms, mech_regions
    ):
        if region == "prologue":
            prologue_mechs.append((prob, dets, obs))
        elif region == "epilogue":
            epilogue_mechs.append((prob, dets, obs))
        else:
            normalized = tuple(d - region * det_per_rep for d in dets)
            replay_seqs[region].append((prob, normalized, obs))

    # Certify shift invariance: how many leading replays produce the
    # same normalized (probability, detectors, observables) sequence?
    base = replay_seqs[0]
    prefix = 1
    while prefix < surrogate_reps and replay_seqs[prefix] == base:
        prefix += 1
    trailing = surrogate_reps - prefix  # epilogue-influenced replays
    if prefix < 2:
        return None, "uncertified_shift"
    # Span guards: every certified mechanism's detector reach must stay
    # within the rounds whose invariance was directly certified, and
    # prologue effects must not leak into the trailing region.
    certified_limit = prologue_rows + (prefix - 1) * det_per_rep
    if any(d >= certified_limit for _, dets, _ in base for d in dets):
        return None, "span_exceeds_certified"
    if any(d >= certified_limit for _, dets, _ in prologue_mechs for d in dets):
        return None, "prologue_span"

    # Unroll to the full circuit: bulk = certified round replicated over
    # the leading reps - trailing replays (one array op per column); the
    # trailing replays and epilogue shift forward by the dropped rounds.
    row_shift = (reps - surrogate_reps) * det_per_rep
    probs, det_counts, det_index, obs_counts, obs_index = _block(base)
    bulk = np.arange(reps - trailing)[:, None]
    blocks = [
        _block(prologue_mechs),
        (
            np.tile(probs, bulk.size),
            np.tile(det_counts, bulk.size),
            (det_index + det_per_rep * bulk).ravel(),
            np.tile(obs_counts, bulk.size),
            np.tile(obs_index, bulk.size),
        ),
    ]
    for j in range(prefix, surrogate_reps):
        blocks.append(_block(replay_seqs[j], j * det_per_rep + row_shift))
    blocks.append(_block(epilogue_mechs, row_shift))
    probs, det_counts, det_index, obs_counts, obs_index = (
        np.concatenate(column) for column in zip(*blocks)
    )
    return FaultTable(
        probs, _starts(det_counts), det_index, _starts(obs_counts), obs_index
    ), None


def _block(rows, shift: int = 0) -> Tuple[np.ndarray, ...]:
    """``(probabilities, detector counts, detector indices + shift,
    observable counts, observable indices)`` of ``(prob, dets, obs)`` rows."""
    det_counts, det_index = _counts_index([dets for _, dets, _ in rows])
    obs_counts, obs_index = _counts_index([obs for _, _, obs in rows])
    return (
        np.array([prob for prob, _, _ in rows], dtype=np.float64),
        det_counts,
        det_index + shift,
        obs_counts,
        obs_index,
    )


def _mechanism_symptoms_packed(circuit: "Circuit", mechanisms):
    """Per-mechanism symptoms as ``(det_start, det_index, obs_start, obs_index)``.

    Mechanism ``m`` lives in bit column ``m`` of the circuit's packed
    frame planes (:func:`repro.sim.compiled.execute_steps`):
    deterministic steps conjugate all mechanisms at once (64 per ALU op),
    and each noise step XORs its mechanisms' Pauli flips in via a
    precomputed scatter.  The symptoms come back as CSR arrays, one row
    per mechanism (see :class:`FaultTable`).
    """
    from repro.sim.compiled import execute_steps, lower_ops
    from repro.sim.ops import NOISE

    program = lower_ops(circuit.operations)
    count = len(mechanisms)
    words = (count + 7) // 8
    padded = 8 * ((words + 7) // 8)
    x = np.zeros((circuit.num_qubits, padded), dtype=np.uint8)
    z = np.zeros((circuit.num_qubits, padded), dtype=np.uint8)
    flips = np.zeros((circuit.num_measurements, padded), dtype=np.uint8)

    injections = []
    mech_index = 0
    for op in circuit.operations:
        if op.name not in NOISE:
            continue
        x_rows: List[int] = []
        x_cols: List[int] = []
        z_rows: List[int] = []
        z_cols: List[int] = []
        while mech_index < count and mechanisms[mech_index][0] is op:
            _, _, x_flip_qubits, z_flip_qubits, _ = mechanisms[mech_index]
            for q in x_flip_qubits:
                x_rows.append(q)
                x_cols.append(mech_index)
            for q in z_flip_qubits:
                z_rows.append(q)
                z_cols.append(mech_index)
            mech_index += 1
        injections.append(_pack_injection(x_rows, x_cols) + _pack_injection(z_rows, z_cols))

    execute_steps(program.steps, x, z, flips, injections)

    detectors = np.zeros((circuit.num_detectors, padded), dtype=np.uint8)
    observables = np.zeros((circuit.num_observables, padded), dtype=np.uint8)
    if program.det_meas.size:
        np.bitwise_xor.at(detectors, program.det_row, flips[program.det_meas])
    if program.obs_meas.size:
        np.bitwise_xor.at(observables, program.obs_row, flips[program.obs_meas])
    return (
        *_columns_csr(detectors[:, :words], count),
        *_columns_csr(observables[:, :words], count),
    )


def _columns_csr(planes: np.ndarray, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(start, index)`` of the set rows of each of ``count`` bit columns.

    The planes are sparse, so only their nonzero bytes are unpacked; a
    stable sort by column keeps each column's rows ascending.
    """
    rows, byte = np.nonzero(planes)
    bit_row, bit = np.nonzero(np.unpackbits(planes[rows, byte][:, None], axis=1))
    columns = 8 * byte[bit_row] + bit
    order = np.argsort(columns, kind="stable")
    return _starts(np.bincount(columns, minlength=count)), rows[bit_row][order]


def _pack_injection(rows: List[int], cols: List[int]):
    """COO (plane row, byte, bit mask) arrays for one noise step's flips."""
    row_array = np.asarray(rows, dtype=np.intp)
    col_array = np.asarray(cols, dtype=np.intp)
    return (
        row_array,
        col_array >> 3,
        (np.uint8(128) >> (col_array & 7)).astype(np.uint8),
    )


def weighted_graph(dem: DetectorErrorModel):
    """DEM-weighted decoding graph (LLR edge weights from merged probs)."""
    from repro.decoder.graph import DecodingGraph

    return DecodingGraph.from_dem(dem)


def uniform_graph(dem: DetectorErrorModel, probability: float = 1e-3):
    """Uniform-weight baseline graph: DEM topology, one edge probability.

    This reproduces the hand-built graphs matching decoders used before
    DEM weighting existed: every edge equally likely, so MWPM minimizes
    hop count instead of likelihood.  Kept as the verification baseline
    -- the DEM-weighted graph must never decode *worse* than this.
    """
    from repro.decoder.graph import DecodingGraph

    return DecodingGraph.from_dem_uniform(dem, probability)
