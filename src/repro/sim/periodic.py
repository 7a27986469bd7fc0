"""Periodic round-compilation: find the repeated round, propagate it once.

A d-distance, r-round memory experiment is one syndrome-extraction round
repeated r times.  This module finds that structure, and DEM extraction
(:mod:`repro.noise.dem`) exploits it:

* :func:`detect_period` finds the longest repeated op-stream window --
  the same op sequence where the only change per repetition is a constant
  shift of every measurement-record reference (qubit indices and gate
  structure must match exactly).  Memory experiments match with the round
  body = one SE round; random circuits, transversal gadgets and r=1 runs
  fall back to the linear :class:`~repro.sim.compiled.CompiledProgram`.
* :class:`PeriodicProgram` samples from the periodic extraction's fault
  table (:func:`repro.noise.dem.circuit_faults`): every fault's symptom,
  propagated over a few rounds and unrolled to all r, so building it is
  O(1) in the round count.  The table is the whole-circuit one when the
  extraction's certificates fail.
* **RNG draw-order contract**: both programs draw through
  :func:`~repro.sim.compiled.draw_hits`, so every noise op makes one
  sparse :func:`~repro.sim.compiled.sample_channel` call, in op order,
  whatever program samples the circuit; and the periodic table equals the
  whole-circuit table row for row.  So periodic and linear programs, and
  the byte-per-bit reference sampler of the tests, are bit-identical per
  seed (property-tested in ``tests/test_sim_periodic.py``).
* :func:`compile_program` builds a draw plan over the memoized fault
  table, which also carries the circuit's repeated round
  (:func:`detect_period` runs once per circuit, inside
  :func:`~repro.noise.dem.circuit_faults`).  A circuit with a round gets
  a :class:`PeriodicProgram`, any other the linear
  :class:`~repro.sim.compiled.CompiledProgram` (the tests build both
  programs directly to compare them).  The plan is rebuilt per call: it
  costs under a millisecond at d=11 r=12, less than the fingerprint a
  program memo would hash, so the fault table is the only per-circuit
  memo DEM extraction and sampling share.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.noise.dem import circuit_faults
from repro.obs import metrics as _metrics
from repro.obs.spans import span
from repro.sim.circuit import Circuit
from repro.sim.compiled import CompiledProgram
from repro.sim.ops import MEASUREMENTS

# Ops whose targets are measurement-record indices (and therefore shift
# by the per-round measurement count between repetitions).
_RECORD_OPS = ("DETECTOR", "OBSERVABLE_INCLUDE")

# How many period candidates (distinct token-recurrence gaps) to scan.
_CANDIDATE_GAPS = 5

# Compiles are counted by the kind produced ("periodic", or
# "linear_fallback" when the circuit has no repeated round).
_COMPILES = _metrics.counter(
    "repro_periodic_compiles_total",
    "Packed-program compilations by produced kind.",
    ("kind",),
)
_COMPILE_SECONDS = _metrics.counter(
    "repro_periodic_compile_seconds_total",
    "Wall-clock seconds spent compiling packed programs, by produced kind.",
    ("kind",),
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


class PeriodicProgram(CompiledProgram):
    """The packed sampler of a circuit with a repeated round.

    Built like :class:`~repro.sim.compiled.CompiledProgram`, over the
    periodic extraction's fault table (see the module docstring);
    sampling is :meth:`CompiledProgram.sample_defects`' draw plan and
    symptom kernel.
    """

    # Bound in this class body too, so hooks that wrap ``run_packed`` per
    # class (layer tracers) see periodic programs on their own.
    run_packed = CompiledProgram.run_packed


def circuit_fingerprint(circuit: Circuit) -> str:
    """Content hash of a circuit's op stream (the fault-table cache key).

    Two circuits with equal fingerprints have identical fault tables:
    the hash covers every op's name, targets and probability arguments
    (float ``repr`` is exact round-trip in Python 3).
    """
    digest = hashlib.sha256()
    for op in circuit.operations:
        digest.update(repr((op.name, op.targets, op.arg, op.args)).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def compile_program(circuit: Circuit) -> CompiledProgram:
    """Compile a circuit to its packed program over its memoized fault table.

    A circuit with a detected repeated round compiles to a
    :class:`PeriodicProgram`; any other falls back to the linear
    :class:`~repro.sim.compiled.CompiledProgram`.  Both take the
    memoized :func:`~repro.noise.dem.circuit_faults` table and produce
    bit-identical samples per seed.
    """
    start = time.perf_counter()
    with span("periodic.compile"):
        faults = circuit_faults(circuit)
        if faults.period is not None:
            program: CompiledProgram = PeriodicProgram(circuit, faults)
            kind = "periodic"
        else:
            program = CompiledProgram(circuit, faults)
            kind = "linear_fallback"
    if _metrics.enabled():
        _COMPILES.labels(kind=kind).inc()
        _COMPILE_SECONDS.labels(kind=kind).inc(time.perf_counter() - start)
    return program
