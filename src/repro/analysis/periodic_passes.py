"""Periodic-DEM offset-consistency diagnostics.

A periodically-compiled memory experiment has a shift-invariant DEM
interior: the mechanisms anchored in round j are the round-(j-1)
mechanisms with every detector index shifted by the per-round detector
count.  The periodic unrolling of :func:`repro.noise.dem.circuit_faults`
(which both :func:`~repro.noise.dem.extract_dem` and the
:mod:`repro.sim.periodic` samplers read) *relies* on that invariance --
and an off-by-one in detector rebasing (in either the unrolled rounds or
a hand-edited DEM) does not crash: it decodes against a skewed metric and
surfaces as logical-error-rate bias.  This pass checks
the invariance statically on the extracted model instead.

:func:`check_dem_periodicity` is a plain function over a DEM plus the
period geometry so tests (and external callers with a known layout) can
run it directly; the registered ``dem_periodicity`` pass reads the
geometry from the period the context circuit's fault table carries
(:attr:`repro.noise.dem.FaultTable.period`) and info-skips circuits with
no usable period.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.passes import PassContext, register_pass

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.noise.dem import DetectorErrorModel

_PASS = "dem_periodicity"

# Rounds excluded from the comparison at each end of the window: the
# leading blocks absorb prologue/time-boundary mechanisms and the
# trailing blocks absorb epilogue/final-readout mechanisms, neither of
# which is expected to be shift-invariant.
_BOUNDARY_ROUNDS = 2


def check_dem_periodicity(
    dem: "DetectorErrorModel",
    *,
    prologue_detectors: int,
    detectors_per_round: int,
    rounds: int,
) -> List[Diagnostic]:
    """Check that a DEM's interior per-round mechanism blocks are offset-
    consistent.

    Mechanisms are bucketed into round blocks by their lowest detector
    index (block ``b`` owns rows ``[prologue_detectors + b * detectors_per_round,
    ...)``), each interior block is normalized by subtracting its block
    offset, and all interior blocks must then be identical as multisets
    of (probability, detectors, observables).  A mismatch means some
    round's mechanisms were rebased wrongly -- exactly the defect an
    unrolling off-by-one produces.
    """
    diags: List[Diagnostic] = []
    if detectors_per_round <= 0 or rounds <= 0:
        diags.append(Diagnostic(
            "error", _PASS,
            f"invalid period geometry: detectors_per_round="
            f"{detectors_per_round}, rounds={rounds}",
        ))
        return diags
    interior = range(_BOUNDARY_ROUNDS, rounds - _BOUNDARY_ROUNDS)
    if len(interior) < 2:
        diags.append(Diagnostic(
            "info", _PASS,
            f"only {rounds} round blocks ({len(interior)} interior); too "
            f"few to compare for offset consistency",
        ))
        return diags

    blocks: Dict[int, List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]]] = {
        b: [] for b in interior
    }
    for mech in dem.mechanisms:
        if not mech.detectors:
            continue
        anchor = mech.detectors[0] - prologue_detectors
        if anchor < 0:
            continue
        block = anchor // detectors_per_round
        if block not in blocks:
            continue
        offset = prologue_detectors + block * detectors_per_round
        blocks[block].append((
            mech.probability,
            tuple(d - offset for d in mech.detectors),
            mech.observables,
        ))

    reference_block = interior[0]
    reference = sorted(blocks[reference_block])
    for block in interior[1:]:
        candidate = sorted(blocks[block])
        if candidate == reference:
            continue
        missing = [m for m in reference if m not in candidate]
        extra = [m for m in candidate if m not in reference]
        detail = ""
        if missing:
            detail += f"; e.g. missing {missing[0]}"
        elif extra:
            detail += f"; e.g. extra {extra[0]}"
        diags.append(Diagnostic(
            "error", _PASS,
            f"round block {block} ({len(candidate)} mechanisms) is not an "
            f"offset copy of block {reference_block} "
            f"({len(reference)} mechanisms){detail}; detector rebasing is "
            f"inconsistent across rounds",
        ))
    return diags


def dem_periodicity(ctx: PassContext) -> Iterator[Diagnostic]:
    """Check the DEM's interior blocks against the circuit's period."""
    from repro.noise.dem import circuit_faults

    if ctx.circuit is None:
        raise ValueError("dem_periodicity requires a circuit")
    try:
        spec = circuit_faults(ctx.circuit).period
        dem = ctx.dem()
    except Exception as exc:
        yield Diagnostic("error", _PASS, f"DEM extraction failed: {exc}")
        return
    if spec is None or spec.det_per_rep <= 0:
        yield Diagnostic(
            "info", _PASS,
            "circuit has no repeated round emitting detectors; nothing to "
            "compare",
        )
        return
    yield from check_dem_periodicity(
        dem,
        prologue_detectors=spec.det_start,
        detectors_per_round=spec.det_per_rep,
        rounds=spec.reps,
    )


register_pass("dem_periodicity", dem_periodicity)
