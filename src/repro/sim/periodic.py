"""Periodic round-compilation: compile one SE round, replay it r times.

A d-distance, r-round memory experiment is one syndrome-extraction round
replayed r times, yet the linear compiler (:mod:`repro.sim.compiled`)
lowers all r copies, so compile time and program size scale O(rounds)
when the underlying structure is O(1).  This module exploits the
periodicity:

* :func:`detect_period` finds the longest repeated op-stream window --
  the same op sequence where the only change per repetition is a constant
  shift of every measurement-record reference (qubit indices and gate
  structure must match exactly).  Memory experiments match with the round
  body = one SE round; random circuits, transversal gadgets and r=1 runs
  fall back to the linear :class:`~repro.sim.compiled.CompiledProgram`.
* :class:`PeriodicProgram` lowers {prologue, round body, epilogue} once
  and replays the body r times over the same bit-packed planes, rebasing
  the body's measurement slots and sparse GF(2) detector/observable COO
  per replay by (r_index * measurements_per_round, r_index *
  detectors_per_round) instead of materializing r lowered copies.
* **RNG draw-order contract**: every noise step makes one sparse
  :func:`~repro.sim.compiled.sample_channel` call, in step order, and a
  replay executes exactly the steps the linear program lists for that
  round -- so periodic and linear programs make the same kernel calls in
  the same order, and ``sample_packed`` is bit-identical per seed by
  construction (property-tested in ``tests/test_sim_periodic.py``).
* :func:`compile_program` takes the periodic path whenever
  :func:`detect_period` finds a round and the linear one otherwise (the
  tests build both programs directly to compare them).  It memoizes the
  program per circuit fingerprint (registered with
  :func:`repro.core.cache.register_cache`), so the decoding engine's
  repeated ``run_until`` batches and repeated engines over the same
  circuit stop recompiling.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter, namedtuple
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.cache import register_cache
from repro.obs import metrics as _metrics
from repro.obs.spans import span
from repro.sim.circuit import Circuit
from repro.sim.compiled import (
    CompiledProgram,
    SamplingNoise,
    execute_steps,
    lower_ops,
)
from repro.sim.ops import MEASUREMENTS

# Ops whose targets are measurement-record indices (and therefore shift
# by the per-round measurement count between replays).
_RECORD_OPS = ("DETECTOR", "OBSERVABLE_INCLUDE")

# How many period candidates (distinct token-recurrence gaps) to scan.
_CANDIDATE_GAPS = 5

# Compile vs replay is the trade this module exists to win: compiles are
# counted by the kind produced ("periodic", or "linear_fallback" when the
# circuit has no repeated round), and replay time is separated from
# compile time so the amortization is visible in /metrics.
_COMPILES = _metrics.counter(
    "repro_periodic_compiles_total",
    "Packed-program compilations (cache misses) by produced kind.",
    ("kind",),
)
_COMPILE_SECONDS = _metrics.counter(
    "repro_periodic_compile_seconds_total",
    "Wall-clock seconds spent compiling packed programs, by produced kind.",
    ("kind",),
)
_REPLAY_SECONDS = _metrics.counter(
    "repro_periodic_replay_seconds_total",
    "Wall-clock seconds spent replaying periodic programs (run_packed).",
)


@dataclass(frozen=True)
class PeriodSpec:
    """A detected repetition window ``ops[start : start + length * reps]``.

    Within the window, repetition ``j`` equals repetition ``0`` except
    that every measurement-record reference is shifted by
    ``j * meas_per_rep``.  ``meas_start`` / ``det_start`` count the
    measurements and detectors emitted before the window.
    """

    start: int
    length: int
    reps: int
    meas_per_rep: int
    det_per_rep: int
    meas_start: int
    det_start: int

    @property
    def savings(self) -> int:
        """Ops the periodic lowering avoids re-lowering."""
        return (self.reps - 1) * self.length


def detect_period(circuit: Circuit) -> Optional[PeriodSpec]:
    """Find the best repeated round in a circuit's op stream, if any.

    Two ops match at stride L when they are equal except that
    DETECTOR / OBSERVABLE_INCLUDE record targets are shifted by exactly
    the number of measurements between the two positions.  Candidate
    strides are the most common recurrence gaps of identical op tokens;
    for each, one scan finds the longest run of matching positions.
    Returns the spec with the largest savings, or ``None`` when nothing
    repeats (non-memory circuits, single-round experiments).
    """
    ops = circuit.operations
    n = len(ops)
    if n < 2:
        return None

    # Token per op: record ops tokenize without their targets (those are
    # expected to shift); everything else must match exactly.
    tokens: List[tuple] = []
    for op in ops:
        if op.name in _RECORD_OPS:
            tokens.append((op.name, op.arg, len(op.targets)))
        else:
            tokens.append((op.name, op.arg, op.args, op.targets))

    meas_prefix = [0]
    det_prefix = [0]
    for op in ops:
        is_meas = op.name in MEASUREMENTS
        meas_prefix.append(meas_prefix[-1] + (len(op.targets) if is_meas else 0))
        det_prefix.append(det_prefix[-1] + (1 if op.name == "DETECTOR" else 0))

    # Candidate strides: gaps at which identical tokens recur most often.
    last_seen: Dict[tuple, int] = {}
    gaps: Counter = Counter()
    for i, token in enumerate(tokens):
        previous = last_seen.get(token)
        if previous is not None:
            gaps[i - previous] += 1
        last_seen[token] = i

    def matches(i: int, stride: int) -> bool:
        if tokens[i] != tokens[i + stride]:
            return False
        a, b = ops[i], ops[i + stride]
        if a.name in _RECORD_OPS:
            delta = meas_prefix[i + stride] - meas_prefix[i]
            return all(tb == ta + delta for ta, tb in zip(a.targets, b.targets))
        return True

    best: Optional[PeriodSpec] = None
    for stride, _ in gaps.most_common(_CANDIDATE_GAPS):
        if 2 * stride > n:
            continue
        i = 0
        while i < n - stride:
            if not matches(i, stride):
                i += 1
                continue
            run_start = i
            while i < n - stride and matches(i, stride):
                i += 1
            # A run of m matching positions covers m + stride ops, i.e.
            # 1 + m // stride full repetitions of the stride window.
            reps = (i - run_start) // stride + 1
            if reps >= 2:
                spec = PeriodSpec(
                    start=run_start,
                    length=stride,
                    reps=reps,
                    meas_per_rep=(
                        meas_prefix[run_start + stride] - meas_prefix[run_start]
                    ),
                    det_per_rep=(
                        det_prefix[run_start + stride] - det_prefix[run_start]
                    ),
                    meas_start=meas_prefix[run_start],
                    det_start=det_prefix[run_start],
                )
                if best is None or spec.savings > best.savings:
                    best = spec
            i += 1
    return best


class PeriodicProgram:
    """{prologue, round body x reps, epilogue} over bit-packed planes.

    The round body is lowered once; :meth:`run_packed` executes it
    ``reps`` times with per-replay measurement-slot offsets and rebases
    its detector/observable COO per replay (see the module docstring for
    the stream contract).
    Public surface mirrors :class:`~repro.sim.compiled.CompiledProgram`.
    """

    def __init__(self, circuit: Circuit, spec: Optional[PeriodSpec] = None) -> None:
        if spec is None:
            spec = detect_period(circuit)
        if spec is None:
            raise ValueError(
                "circuit has no repeated round; use CompiledProgram instead"
            )
        self.num_qubits = circuit.num_qubits
        self.num_measurements = circuit.num_measurements
        self.num_detectors = circuit.num_detectors
        self.num_observables = circuit.num_observables
        self.spec = spec
        ops = circuit.operations
        start, length, reps = spec.start, spec.length, spec.reps
        self._prologue = lower_ops(ops[:start])
        self._body = lower_ops(
            ops[start : start + length], spec.meas_start, spec.det_start
        )
        self._epilogue = lower_ops(
            ops[start + reps * length :],
            spec.meas_start + reps * spec.meas_per_rep,
            spec.det_start + reps * spec.det_per_rep,
        )
        if (
            self._prologue.meas_count != spec.meas_start
            or self._body.meas_count != spec.meas_per_rep
            or self._body.det_count != spec.det_per_rep
        ):  # pragma: no cover - detect_period guarantees consistency
            raise ValueError("periodic lowering disagrees with detected spec")

    def run_packed(
        self, shots: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``shots`` noisy shots; see ``CompiledProgram.run_packed``.

        Bit-identical per seed to the linear program's output: replaying
        the body with offset record bases applies the same updates, and
        draws the same channel hits in the same order, as the linear
        steps encode explicitly.
        """
        if shots < 0:
            raise ValueError("shots must be >= 0")
        replay_start = time.perf_counter() if _metrics.enabled() else 0.0
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

        noise = SamplingNoise(rng, shots)
        execute_steps(self._prologue.steps, x64, z64, f64, xw, zw, noise)
        for rep in range(self.spec.reps):
            execute_steps(
                self._body.steps, x64, z64, f64, xw, zw, noise,
                slot_offset=rep * self.spec.meas_per_rep,
            )
        execute_steps(self._epilogue.steps, x64, z64, f64, xw, zw, noise)
        noise.report()

        detectors = np.zeros((self.num_detectors, padded), dtype=np.uint8)
        observables = np.zeros((self.num_observables, padded), dtype=np.uint8)
        self._scatter_records(
            detectors.view(np.uint64), observables.view(np.uint64), f64
        )
        if _metrics.enabled():
            _REPLAY_SECONDS.inc(time.perf_counter() - replay_start)
        return detectors[:, :words], observables[:, :words]

    def _scatter_records(
        self, detectors: np.ndarray, observables: np.ndarray, flips: np.ndarray
    ) -> None:
        """XOR-reduce measurement flips into detector/observable rows.

        The planes arrive as uint64 word views (8x fewer elements for the
        unbuffered XOR-reduce).  The body's COO is stored once for replay
        0; replaying rebases it by broadcasting the per-replay
        (measurement, detector) offsets -- observable rows are global and
        never shift.
        """
        spec = self.spec
        reps = spec.reps
        offsets = np.arange(reps, dtype=np.intp)[:, None]
        for segment in (self._prologue, self._epilogue):
            if segment.det_meas.size:
                np.bitwise_xor.at(
                    detectors, segment.det_row, flips[segment.det_meas]
                )
            if segment.obs_meas.size:
                np.bitwise_xor.at(
                    observables, segment.obs_row, flips[segment.obs_meas]
                )
        body = self._body
        if body.det_meas.size:
            rows = (body.det_row[None, :] + spec.det_per_rep * offsets).ravel()
            meas = (body.det_meas[None, :] + spec.meas_per_rep * offsets).ravel()
            np.bitwise_xor.at(detectors, rows, flips[meas])
        if body.obs_meas.size:
            rows = np.tile(body.obs_row, reps)
            meas = (body.obs_meas[None, :] + spec.meas_per_rep * offsets).ravel()
            np.bitwise_xor.at(observables, rows, flips[meas])


Program = Union[CompiledProgram, PeriodicProgram]


def circuit_fingerprint(circuit: Circuit) -> str:
    """Content hash of a circuit's op stream (the program-cache key).

    Two circuits with equal fingerprints lower to identical programs:
    the hash covers every op's name, targets and probability arguments
    (float ``repr`` is exact round-trip in Python 3).
    """
    digest = hashlib.sha256()
    for op in circuit.operations:
        digest.update(repr((op.name, op.targets, op.arg, op.args)).encode())
        digest.update(b"\0")
    return digest.hexdigest()


_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _ProgramCache:
    """Fingerprint-keyed program store with ``lru_cache``-style counters.

    Keys are content hashes rather than argument identities, so equal
    circuits built independently (e.g. every ``run_until`` batch, every
    engine over the same experiment) share one compiled program.
    Programs are immutable after compilation, safe to share.  Registered
    with :func:`repro.core.cache.register_cache` so the repo-wide
    ``cache_stats()`` / ``clear_caches()`` cover it.
    """

    def __init__(self) -> None:
        self._programs: Dict[str, Program] = {}
        self._hits = 0
        self._misses = 0

    def get(self, circuit: Circuit) -> Program:
        key = circuit_fingerprint(circuit)
        program = self._programs.get(key)
        if program is not None:
            self._hits += 1
            return program
        self._misses += 1
        program = _compile_uncached(circuit)
        self._programs[key] = program
        return program

    def cache_info(self) -> "_CacheInfo":
        return _CacheInfo(self._hits, self._misses, None, len(self._programs))

    def cache_clear(self) -> None:
        self._programs.clear()
        self._hits = 0
        self._misses = 0


_PROGRAM_CACHE = _ProgramCache()
register_cache("repro.sim.periodic.compile_program", _PROGRAM_CACHE)


def _compile_uncached(circuit: Circuit) -> Program:
    start = time.perf_counter()
    with span("periodic.compile"):
        spec = detect_period(circuit)
        if spec is not None:
            program: Program = PeriodicProgram(circuit, spec)
            kind = "periodic"
        else:
            program = CompiledProgram(circuit)
            kind = "linear_fallback"
    if _metrics.enabled():
        _COMPILES.labels(kind=kind).inc()
        _COMPILE_SECONDS.labels(kind=kind).inc(time.perf_counter() - start)
    return program


def compile_program(circuit: Circuit) -> Program:
    """Compile a circuit to its packed program, memoized by fingerprint.

    A circuit with a detected repeated round compiles to a
    :class:`PeriodicProgram`; any other falls back to the linear
    :class:`~repro.sim.compiled.CompiledProgram`.  Both produce
    bit-identical ``run_packed`` output per seed.
    """
    return _PROGRAM_CACHE.get(circuit)
