"""Detector-error-model extraction and weighted decoding-graph lowering.

The detector error model (DEM) is the contract between a noisy circuit and
its decoders: for every elementary error mechanism -- one Pauli outcome of
one noise channel at one circuit location -- it records which detectors
and logical observables flip when that mechanism fires, together with the
firing probability.  Mechanisms with identical symptoms are merged by XOR
convolution.

Extraction works on arrays from noise op to merged model.
:func:`enumerate_mechanisms` lists every fault as columns (op index,
probability, flipped qubits), built per noise op from the Pauli tables
of :mod:`repro.sim.ops`.  It covers every channel of the op table
(:data:`repro.sim.ops.NOISE`), including the biased ``PAULI_CHANNEL_1`` /
``PAULI_CHANNEL_2`` whose per-outcome probabilities ride in
``Operation.args``.  The faults are then propagated through the Clifford
circuit with the packed frame steps of :mod:`repro.sim.compiled`, one bit
column per fault: each fault's Pauli is injected into its column at the
channel's position, all deterministic steps conjugate every column at
once, and the column's final detector/observable flips are the symptom.

:func:`circuit_faults` runs that propagation over a few rounds of a
circuit with a certified repeated round and unrolls the rest (the
periodic path); any other circuit is propagated whole (the linear path),
and the table's ``periodic_fallback`` names the certificate that failed.
The result is a :class:`FaultTable`: every fault's symptom, unmerged, in
circuit order, as CSR arrays, plus the circuit's repeated round.  It is
memoized per circuit fingerprint, so one propagation and one period
detection per circuit serve every consumer: :func:`extract_dem` merges
it into the model (stamped with the round's detector count), and the
packed samplers (:mod:`repro.sim.compiled`) XOR the rows of the faults
they draw.  The tests hold both paths equal to a byte-per-bit,
row-per-mechanism reference propagation.

Merging (:func:`extract_dem` and :meth:`DetectorErrorModel.merged` share
one kernel) groups identical symptom rows with a stable sort, folds
their probabilities in fault order, and builds :class:`ErrorMechanism`
objects for the merged rows only.

Lowering: :meth:`DecodingGraph.from_dem
<repro.decoder.graph.DecodingGraph.from_dem>` turns a DEM into the
matching decoders' graph, whose edges carry log-likelihood-ratio weights
``log((1-p)/p)`` derived from the merged mechanism probabilities -- so a
biased or movement-aware model reshapes the decoders' metric with zero
decoder changes.  :meth:`DecodingGraph.from_dem_uniform
<repro.decoder.graph.DecodingGraph.from_dem_uniform>` builds the same
topology with every edge pinned to one probability: the hand-built
uniform-weight graph the repo's decoders historically matched on, kept
as the verification baseline the weighted graph must beat.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import KeyedCache, register_cache
from repro.obs import metrics as _metrics
from repro.obs.logs import get_logger
from repro.obs.spans import span

if TYPE_CHECKING:  # pragma: no cover - type-only; see the lazy imports below
    from repro.sim.circuit import Circuit
    from repro.sim.periodic import PeriodSpec

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
    ``"span_exceeds_certified"`` or ``"prologue_span"``.
    ``detector_shift`` is the detector count of the circuit's repeated
    round, ``None`` without one, set even when the periodic extraction
    fell back; :class:`~repro.decoder.graph.DecodingGraph` carries it to
    the decoders.  Both describe how the model was built, not the model,
    so they take no part in equality.
    """

    mechanisms: List[ErrorMechanism]
    num_detectors: int
    num_observables: int
    periodic_fallback: Optional[str] = field(default=None, compare=False)
    detector_shift: Optional[int] = field(default=None, compare=False)

    def merged(self) -> "DetectorErrorModel":
        """Combine mechanisms with identical symptoms.

        Two independent sources with the same symptom act like one source
        firing with probability p = p1 (1 - p2) + p2 (1 - p1).  Merged
        mechanisms come sorted by ``(detectors, observables)``; those
        whose merged probability is 0 are dropped.
        """
        return replace(self, mechanisms=_merge(
            self.fault_table(), np.arange(len(self.mechanisms))
        ))

    def fault_table(self) -> "FaultTable":
        """The mechanisms as a :class:`FaultTable`, one row per mechanism.

        Probabilities plus detector/observable CSR, in mechanism order:
        what :meth:`merged` merges and the importance sampler
        (:mod:`repro.estimator.rare`) XORs the fired rows of.
        """
        mechanisms = self.mechanisms
        det_start, det_index = _csr([m.detectors for m in mechanisms])
        obs_start, obs_index = _csr([m.observables for m in mechanisms])
        probabilities = np.array(
            [m.probability for m in mechanisms], dtype=np.float64
        )
        return FaultTable(probabilities, det_start, det_index, obs_start, obs_index)

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

        Symptom topology (detector/observable sets, mechanism order),
        ``periodic_fallback`` and ``detector_shift`` are preserved
        exactly, so for disjoint-symptom models ``reweighted`` commutes
        with :meth:`merged`.
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
        return replace(self, mechanisms=mechanisms)


@dataclass(frozen=True, eq=False)
class FaultColumns:
    """Every fault of a circuit before propagation, one row per fault.

    Rows come in circuit order: per noise op, per target (or target
    pair), per outcome in :data:`~repro.sim.ops.PAULI_1Q` /
    :data:`~repro.sim.ops.PAULI_2Q` order.  Fault ``f`` belongs to
    ``circuit.operations[op[f]]``, fires with ``probability[f]``, and
    flips X on ``qubits[f, k]`` where ``x[f, k]`` and Z on ``qubits[f,
    k]`` where ``z[f, k]`` (``k`` = 0, 1; single-qubit channels use
    ``k = 0`` only and hold ``qubits[f, 1] = -1``).
    """

    op: np.ndarray
    probability: np.ndarray
    qubits: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def __len__(self) -> int:
        return self.op.size


@dataclass(frozen=True, eq=False)
class FaultTable:
    """Every fault of a circuit with its symptom, unmerged.

    One row per fault, in :func:`enumerate_mechanisms` order (see
    :class:`FaultColumns`).  Fault ``f`` fires with ``probabilities[f]``
    and flips the detectors ``det_index[det_start[f]:det_start[f + 1]]``
    and the observables ``obs_index[obs_start[f]:obs_start[f + 1]]``
    (CSR, sorted).  :func:`extract_dem` merges the rows into the model;
    the packed samplers XOR the rows of the faults they draw.
    ``periodic_fallback`` names the certificate the periodic extraction
    failed (see :class:`DetectorErrorModel`), ``None`` when it held.
    ``period`` is the circuit's repeated round on tables from
    :func:`circuit_faults`, the one place that calls
    :func:`repro.sim.periodic.detect_period`: program compilation, the
    model's ``detector_shift`` (and from it the union-find decoder's
    round shift) and the ``dem_periodicity`` pass all read it here.
    """

    probabilities: np.ndarray
    det_start: np.ndarray
    det_index: np.ndarray
    obs_start: np.ndarray
    obs_index: np.ndarray
    periodic_fallback: Optional[str] = None
    period: Optional["PeriodSpec"] = None

    def __len__(self) -> int:
        return self.probabilities.size


def _starts(counts: np.ndarray) -> np.ndarray:
    """CSR row starts (with the closing end) of per-row lengths."""
    start = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=start[1:])
    return start


def _csr(groups: Sequence[Tuple[int, ...]]) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(start, index)`` of a list of index tuples."""
    counts = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    index = np.fromiter(
        itertools.chain.from_iterable(groups), dtype=np.int64,
        count=int(counts.sum()),
    )
    return _starts(counts), index


def _padded(
    start: np.ndarray, index: np.ndarray, rows: np.ndarray, pad: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys, counts)``: CSR ``rows`` as a ``pad``-filled ``(rows, width)`` matrix."""
    counts = start[rows + 1] - start[rows]
    filled = np.arange(counts.max(initial=0)) < counts[:, None]
    keys = np.full(filled.shape, pad, dtype=np.int64)
    keys[filled] = index[(start[rows, None] + np.arange(filled.shape[1]))[filled]]
    return keys, counts


def _by_rank(first: np.ndarray) -> List[np.ndarray]:
    """Positions of a grouped sequence by occurrence rank.

    ``first`` marks where each group of a sequence starts; entry ``k`` of
    the result holds the position of the ``k``-th member of every group
    with more than ``k`` members, so one array op per rank touches each
    group at most once, in member order.
    """
    heads = np.flatnonzero(first)
    rank = np.arange(first.size) - heads[np.cumsum(first) - 1]
    by_rank = np.argsort(rank, kind="stable")
    return np.split(by_rank, np.cumsum(np.bincount(rank))[:-1])


def _merge(table: "FaultTable", rows: np.ndarray) -> List[ErrorMechanism]:
    """Merged mechanisms of the rows ``rows`` (ascending) of ``table``.

    Rows with identical ``(detectors, observables)`` merge by XOR
    convolution ``prior (1 - p) + p (1 - prior)``, folded in row order;
    groups come in the Python tuple order of their keys, and groups whose
    merged probability is not positive are dropped.  A stable lexsort of
    the symptom rows, padded past their ends with a value below every
    index (so a prefix sorts first, as in tuple order), groups them; the
    fold runs once per occurrence rank, over every group with that many
    members at once.  The float operations per group are exactly those
    of a sequential per-mechanism fold.
    """
    if not rows.size:
        return []
    det_start, det_index = table.det_start, table.det_index
    obs_start, obs_index = table.obs_start, table.obs_index
    pad = min(int(det_index.min(initial=0)), int(obs_index.min(initial=0))) - 1
    det_keys, det_counts = _padded(det_start, det_index, rows, pad)
    obs_keys, obs_counts = _padded(obs_start, obs_index, rows, pad)
    keys = np.concatenate((det_keys, obs_keys), axis=1)
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(rows.size)
    keys = keys[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    heads = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    prob = table.probabilities[rows[order]]
    merged = np.zeros(heads.size, dtype=np.float64)
    for at in _by_rank(first):
        members, p = group[at], prob[at]
        prior = merged[members]
        merged[members] = prior * (1 - p) + p * (1 - prior)
    positive = merged > 0
    keep = heads[positive]
    width = det_keys.shape[1]
    return list(map(
        ErrorMechanism,
        merged[positive].tolist(),
        _tuples(keys[keep, :width], det_counts[order[keep]]),
        _tuples(keys[keep, width:], obs_counts[order[keep]]),
    ))


def _tuples(keys: np.ndarray, counts: np.ndarray) -> List[Tuple[int, ...]]:
    """The first ``counts[i]`` entries of each row ``i`` of ``keys``, as tuples."""
    return [tuple(key[:count]) for key, count in zip(keys.tolist(), counts.tolist())]


def enumerate_mechanisms(circuit: "Circuit") -> FaultColumns:
    """Every elementary Pauli outcome of every noise channel, as columns.

    One row per outcome per channel target, in circuit order (see
    :class:`FaultColumns`); the probabilities come straight from the
    channel parameters (``arg`` for the symmetric channels, ``args`` for
    the biased ones).

    Every op classified as noise by :data:`repro.sim.ops.NOISE` must be
    handled here: an unrecognized channel raises instead of being silently
    skipped, because a skipped channel yields a DEM that underweights the
    true error process -- decoders would quietly decode against the wrong
    metric (a wrong logical error rate, not a crash).
    """
    from repro.sim.ops import NOISE, NOISE_2Q, PAULI_1Q, PAULI_2Q

    # Per channel: per-outcome (x, z) flips on the (first, second) qubit.
    one = np.array([[[x, 0], [z, 0]] for x, z in PAULI_1Q], dtype=bool)
    two = np.array(
        [[[xa, xb], [za, zb]] for (xa, za), (xb, zb) in PAULI_2Q], dtype=bool
    )
    flips = {
        "X_ERROR": np.array([[[1, 0], [0, 0]]], dtype=bool),
        "Z_ERROR": np.array([[[0, 0], [1, 0]]], dtype=bool),
        "Y_ERROR": np.array([[[1, 0], [1, 0]]], dtype=bool),
        "DEPOLARIZE1": one,
        "PAULI_CHANNEL_1": one,
        "DEPOLARIZE2": two,
        "PAULI_CHANNEL_2": two,
    }
    ops = [np.zeros(0, dtype=np.intp)]
    probabilities = [np.zeros(0, dtype=np.float64)]
    qubits = [np.zeros((0, 2), dtype=np.intp)]
    outcome_flips = [np.zeros((0, 2, 2), dtype=bool)]
    for index, op in enumerate(circuit.operations):
        if op.name not in NOISE:
            continue
        if op.name not in flips:
            raise ValueError(
                f"noise op {op.name!r} has no DEM mechanism enumeration; "
                f"extending repro.sim.ops.NOISE requires extending "
                f"enumerate_mechanisms in lockstep"
            )
        table = flips[op.name]
        outcomes = table.shape[0]
        probs = op.args or (op.arg / outcomes,) * outcomes
        targets = np.asarray(op.targets, dtype=np.intp)
        if op.name in NOISE_2Q:
            pairs = targets.reshape(-1, 2)
        else:
            pairs = np.stack((targets, np.full(targets.size, -1, dtype=np.intp)), 1)
        ops.append(np.full(len(pairs) * outcomes, index, dtype=np.intp))
        probabilities.append(np.tile(np.asarray(probs, dtype=np.float64), len(pairs)))
        qubits.append(np.repeat(pairs, outcomes, axis=0))
        outcome_flips.append(np.tile(table, (len(pairs), 1, 1)))
    flip = np.concatenate(outcome_flips)
    return FaultColumns(
        np.concatenate(ops),
        np.concatenate(probabilities),
        np.concatenate(qubits),
        flip[:, 0],
        flip[:, 1],
    )


def extract_dem(circuit: "Circuit") -> DetectorErrorModel:
    """The circuit's DEM: its :func:`circuit_faults` table, merged.

    A circuit with a verified repeated round takes the periodic
    extraction: mechanisms are enumerated over a few rounds and unrolled
    by shifting detector references, O(1) in the round count.  Any other
    circuit, or a failed certification, takes the linear propagation and
    records why in the model's ``periodic_fallback`` (and in
    ``repro_periodic_fallback_total``, once per call).  Both paths yield
    *identical* fault tables, row for row with the same float
    probabilities, so the merge accumulates bit-identically.  Symptomless
    faults are dropped before merging.
    ``repro_dem_extract_seconds_total{method=}`` counts the fault table
    and the merge.  :func:`repro.analysis.verify_dem` checks the result
    with the ``dem_consistency`` diagnostics (detector coverage,
    probability sanity, undetectable logical mechanisms).
    """
    start = time.perf_counter()
    faults = circuit_faults(circuit)
    reason = faults.periodic_fallback
    if reason is not None:
        _PERIODIC_FALLBACKS.labels(reason=reason).inc()
        _LOG.debug("periodic DEM extraction fell back to linear: %s", reason)
    symptom = np.diff(faults.det_start) + np.diff(faults.obs_start)
    dem = DetectorErrorModel(
        _merge(faults, np.flatnonzero(symptom)),
        circuit.num_detectors,
        circuit.num_observables,
        periodic_fallback=reason,
        detector_shift=None if faults.period is None else faults.period.det_per_rep,
    )
    _EXTRACT_SECONDS.labels(method="linear" if reason else "periodic").inc(
        time.perf_counter() - start
    )
    return dem


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
    from repro.sim.periodic import detect_period

    spec = detect_period(circuit)
    table, reason = _periodic_faults(circuit, spec)
    if table is None:
        with span("dem.linear_mechanisms"):
            table = whole_circuit_faults(circuit, reason)
    return replace(table, period=spec)


def _fingerprint(circuit: "Circuit") -> str:
    from repro.sim.periodic import circuit_fingerprint

    return circuit_fingerprint(circuit)


_FAULT_CACHE = KeyedCache(_fingerprint, _circuit_faults_uncached)
register_cache("repro.noise.dem.circuit_faults", _FAULT_CACHE)


def whole_circuit_faults(
    circuit: "Circuit", periodic_fallback: Optional[str] = None
) -> FaultTable:
    """Fault table with every fault propagated through the whole circuit."""
    faults = enumerate_mechanisms(circuit)
    return FaultTable(
        faults.probability,
        *_mechanism_symptoms_packed(circuit, faults),
        periodic_fallback=periodic_fallback,
    )


# -- periodic extraction -------------------------------------------------------
#
# A circuit with a verified repeated round (repro.sim.periodic) has a
# shift-invariant DEM interior: a mechanism in round body replay j flips
# the same detector pattern as its replay-0 twin, offset by j rounds.
# Extraction therefore builds a *surrogate* circuit with only
# _SURROGATE_REPS replays (epilogue record references rebased), computes
# its fault table with the same packed propagation the linear path runs
# on the whole circuit, certifies shift invariance inside the
# surrogate, and unrolls: prologue faults verbatim, the certified
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
    circuit: "Circuit", spec: Optional["PeriodSpec"]
) -> Tuple[Optional[FaultTable], Optional[str]]:
    """Fault table via periodic unrolling of the circuit's repeated round
    ``spec`` (:func:`~repro.sim.periodic.detect_period`): ``(table, reason)``.

    ``(table, None)`` on success; ``(None, reason)`` when a certification
    failed and the caller must fall back to the linear path (reasons are
    enumerated in :class:`DetectorErrorModel`).

    Emits faults in linear circuit order (prologue, replay 0..k-1,
    epilogue, preserving within-round enumeration order) with the exact
    channel probability floats, so the table equals the whole-circuit
    one row for row and the merge is bit-identical to the linear path's.
    """
    from repro.sim.circuit import Circuit

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
    try:
        for op in ops[:start]:
            surrogate.append(op.name, op.targets, op.arg, op.args)
        for j in range(surrogate_reps):
            offset = j * spec.meas_per_rep
            for op in ops[start : start + length]:
                if op.name in ("DETECTOR", "OBSERVABLE_INCLUDE"):
                    targets = tuple(t + offset for t in op.targets)
                else:
                    targets = op.targets
                surrogate.append(op.name, targets, op.arg, op.args)
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
    except ValueError:
        return None, "epilogue_record_ref"

    faults = enumerate_mechanisms(surrogate)
    table = FaultTable(faults.probability, *_mechanism_symptoms_packed(surrogate, faults))
    # Regions by fault-index range: the prologue's faults end where
    # replay 0's ops start, replay j's where replay j + 1's start, and
    # the epilogue's faults follow the last replay's.
    edges = np.searchsorted(
        faults.op, start + length * np.arange(surrogate_reps + 1)
    ).tolist()
    det_per_rep = spec.det_per_rep
    # Body replays with detector rows normalized to replay 0.
    replays = [
        _rows(table, edges[j], edges[j + 1], -j * det_per_rep)
        for j in range(surrogate_reps)
    ]

    # Certify shift invariance: how many leading replays produce the
    # same normalized (probability, detectors, observables) rows?
    base = replays[0]
    prefix = 1
    while prefix < surrogate_reps and all(
        np.array_equal(a, b) for a, b in zip(replays[prefix], base)
    ):
        prefix += 1
    trailing = surrogate_reps - prefix  # epilogue-influenced replays
    if prefix < 2:
        return None, "uncertified_shift"
    # Span guards: every certified fault's detector reach must stay
    # within the rounds whose invariance was directly certified, and
    # prologue effects must not leak into the trailing region.
    certified_limit = spec.det_start + (prefix - 1) * det_per_rep
    if base[2].max(initial=-1) >= certified_limit:
        return None, "span_exceeds_certified"
    prologue = _rows(table, 0, edges[0])
    if prologue[2].max(initial=-1) >= certified_limit:
        return None, "prologue_span"

    # Unroll to the full circuit: bulk = certified round replicated over
    # the leading reps - trailing replays (one array op per column); the
    # trailing replays and epilogue shift forward by the dropped rounds.
    row_shift = (reps - surrogate_reps) * det_per_rep
    probs, det_counts, det_index, obs_counts, obs_index = base
    bulk = np.arange(reps - trailing)[:, None]
    blocks = [
        prologue,
        (
            np.tile(probs, bulk.size),
            np.tile(det_counts, bulk.size),
            (det_index + det_per_rep * bulk).ravel(),
            np.tile(obs_counts, bulk.size),
            np.tile(obs_index, bulk.size),
        ),
        _rows(table, edges[prefix], len(table), row_shift),
    ]
    probs, det_counts, det_index, obs_counts, obs_index = (
        np.concatenate(column) for column in zip(*blocks)
    )
    return FaultTable(
        probs, _starts(det_counts), det_index, _starts(obs_counts), obs_index
    ), None


def _rows(table: FaultTable, first: int, end: int, shift: int = 0) -> Tuple[np.ndarray, ...]:
    """``(probabilities, detector counts, detector indices + shift,
    observable counts, observable indices)`` of fault rows ``[first, end)``."""
    det = table.det_start[first : end + 1]
    obs = table.obs_start[first : end + 1]
    return (
        table.probabilities[first:end],
        np.diff(det),
        table.det_index[det[0] : det[-1]] + shift,
        np.diff(obs),
        table.obs_index[obs[0] : obs[-1]],
    )


def _mechanism_symptoms_packed(circuit: "Circuit", faults: FaultColumns):
    """Per-fault symptoms as ``(det_start, det_index, obs_start, obs_index)``.

    Fault ``f`` lives in bit column ``f`` of the circuit's packed frame
    planes (:func:`repro.sim.compiled.execute_steps`): deterministic
    steps conjugate all faults at once (64 per ALU op), and each noise
    step XORs its faults' Pauli flips in, sliced from one scatter built
    for every fault at once.  The symptoms come back as CSR arrays, one
    row per fault (see :class:`FaultTable`).
    """
    from repro.sim.compiled import execute_steps, lower_ops
    from repro.sim.ops import NOISE

    program = lower_ops(circuit.operations)
    count = len(faults)
    words = (count + 7) // 8
    padded = 8 * ((words + 7) // 8)
    x = np.zeros((circuit.num_qubits, padded), dtype=np.uint8)
    z = np.zeros((circuit.num_qubits, padded), dtype=np.uint8)
    flips = np.zeros((circuit.num_measurements, padded), dtype=np.uint8)

    noise_ops = [i for i, op in enumerate(circuit.operations) if op.name in NOISE]
    x_cuts, x_scatter = _scatter(faults, faults.x, noise_ops)
    z_cuts, z_scatter = _scatter(faults, faults.z, noise_ops)
    injections = [
        tuple(column[a:b] for column in x_scatter)
        + tuple(column[c:d] for column in z_scatter)
        for a, b, c, d in zip(x_cuts, x_cuts[1:], z_cuts, z_cuts[1:])
    ]

    execute_steps(program.steps, x, z, flips, injections)

    flips = flips.view(np.uint64)
    detectors = _record_xor(
        flips, program.det_meas, program.det_row, circuit.num_detectors
    )
    observables = _record_xor(
        flips, program.obs_meas, program.obs_row, circuit.num_observables
    )
    return (
        *_columns_csr(detectors.view(np.uint8)[:, :words], count),
        *_columns_csr(observables.view(np.uint8)[:, :words], count),
    )


def _scatter(
    faults: FaultColumns, flip: np.ndarray, noise_ops: Sequence[int]
) -> Tuple[List[int], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(cuts, (plane row, byte, bit mask))`` of one Pauli's fault flips.

    Entries run in fault order; noise op ``i``'s are ``cuts[i]:cuts[i + 1]``.
    """
    fault, slot = np.nonzero(flip)
    cuts = np.searchsorted(faults.op[fault], noise_ops).tolist() + [fault.size]
    return cuts, (
        faults.qubits[fault, slot],
        fault >> 3,
        (np.uint8(128) >> (fault & 7)).astype(np.uint8),
    )


def _record_xor(
    flips: np.ndarray, meas: np.ndarray, row: np.ndarray, rows: int
) -> np.ndarray:
    """``(rows, width)`` planes: row ``r`` XORs the records ``meas[row == r]``."""
    planes = np.zeros((rows, flips.shape[1]), dtype=flips.dtype)
    order = np.argsort(row)
    row, meas = row[order], meas[order]
    if row.size:
        for at in _by_rank(np.r_[True, row[1:] != row[:-1]]):
            planes[row[at]] ^= flips[meas[at]]
    return planes


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
