"""Fig. 14: timescale sensitivities and the qubit/time trade-off.

(a) Volume vs atom-acceleration rescale, (b) QEC-round duration vs the
same, (c) volume vs reaction time (gains saturate on the fan-out-bound
lookup), (d) qubits-vs-days trade-off frontier at roughly constant volume
down to ~15 M qubits.

Each panel is a declarative sweep through
:mod:`repro.estimator.sweep`; the factoring sub-models are memoized across
panels.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.algorithms.factoring import FactoringParameters, estimate_factoring
from repro.core.movement import patch_move_time
from repro.core.params import ArchitectureConfig
from repro.core.timing import timing_model
from repro.estimator.registry import Scenario, ScenarioResult, register_scenario
from repro.estimator.sweep import grid, sweep

DEFAULT_RESCALES = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_REACTION_TIMES = (0.25e-3, 0.5e-3, 1e-3, 2e-3, 4e-3)
DEFAULT_RUNWAY_SEPARATIONS = (48, 64, 96, 192, 384, 768)


def _acceleration_point(point: dict, base: ArchitectureConfig) -> dict:
    physical = base.physical.rescaled(
        acceleration=base.physical.acceleration * point["rescale"]
    )
    est = estimate_factoring(config=base.rescaled(physical=physical))
    return {
        "volume_mq_days": est.physical_qubits * est.runtime_seconds / 86400.0 / 1e6
    }


def volume_vs_acceleration(
    rescales: Sequence[float] = DEFAULT_RESCALES,
    base: ArchitectureConfig = ArchitectureConfig(),
) -> Dict[float, float]:
    """Space-time volume (Mq-days) vs acceleration multiplier."""
    records = sweep(
        partial(_acceleration_point, base=base),
        grid(rescale=tuple(rescales)),
    )
    return {r["rescale"]: r["volume_mq_days"] for r in records}


def _qec_round_point(point: dict, base: ArchitectureConfig, code_distance: int) -> dict:
    physical = base.physical.rescaled(
        acceleration=base.physical.acceleration * point["rescale"]
    )
    timing = timing_model(physical)
    active = 4 * (timing.se_move_time + physical.gate_time)
    return {"qec_round_s": patch_move_time(code_distance, physical) + active}


def qec_round_vs_acceleration(
    rescales: Sequence[float] = DEFAULT_RESCALES,
    base: ArchitectureConfig = ArchitectureConfig(),
    code_distance: int = 27,
) -> Dict[float, float]:
    """Move-limited QEC-cycle duration vs acceleration (Fig. 14(b)).

    Ancilla measurement is pipelined against the next round's moves, so the
    plotted duration is the patch interleave move plus the four SE hops and
    pulses -- the part that actually shrinks with acceleration.
    """
    records = sweep(
        partial(_qec_round_point, base=base, code_distance=code_distance),
        grid(rescale=tuple(rescales)),
    )
    return {r["rescale"]: r["qec_round_s"] for r in records}


def _reaction_point(point: dict, base: ArchitectureConfig) -> dict:
    tr = point["reaction_time"]
    physical = base.physical.rescaled(
        measure_time=tr / 2.0, decode_time=tr / 2.0
    )
    est = estimate_factoring(config=base.rescaled(physical=physical))
    return {
        "volume_mq_days": est.physical_qubits * est.runtime_seconds / 86400.0 / 1e6
    }


def volume_vs_reaction_time(
    reaction_times: Sequence[float] = DEFAULT_REACTION_TIMES,
    base: ArchitectureConfig = ArchitectureConfig(),
) -> Dict[float, float]:
    """Volume vs reaction time; decreasing t_r helps until fan-out binds."""
    records = sweep(
        partial(_reaction_point, base=base),
        grid(reaction_time=tuple(reaction_times)),
    )
    return {r["reaction_time"]: r["volume_mq_days"] for r in records}


def _tradeoff_point(point: dict, base: ArchitectureConfig) -> dict:
    params = FactoringParameters(runway_separation=point["runway_separation"])
    est = estimate_factoring(params, base)
    return {
        "megaqubits": est.physical_qubits / 1e6,
        "days": est.runtime_seconds / 86400.0,
    }


def qubit_time_tradeoff(
    runway_separations: Sequence[int] = DEFAULT_RUNWAY_SEPARATIONS,
    base: ArchitectureConfig = ArchitectureConfig(),
) -> List[Tuple[float, float]]:
    """(Mqubits, days) frontier traced by the runway separation.

    Smaller separations buy speed with more segments/factories; larger
    ones shrink the machine at longer runtimes (Fig. 14(d)).
    """
    records = sweep(
        partial(_tradeoff_point, base=base),
        grid(runway_separation=tuple(runway_separations)),
    )
    return [(r["megaqubits"], r["days"]) for r in records]


# -- scenario ------------------------------------------------------------------


def _build_fig14(jobs: int = 1) -> ScenarioResult:
    base = ArchitectureConfig()
    accel = sweep(
        partial(_acceleration_point, base=base),
        grid(rescale=DEFAULT_RESCALES),
    )
    tradeoff = sweep(
        partial(_tradeoff_point, base=base),
        grid(runway_separation=DEFAULT_RUNWAY_SEPARATIONS),
    )
    records = tuple(
        [{"kind": "acceleration", **r} for r in accel]
        + [{"kind": "tradeoff", **r} for r in tradeoff]
    )
    return ScenarioResult(scenario="fig14", records=records, metadata={})


def _render_fig14(result: ScenarioResult) -> str:
    lines = []
    accel = {
        r["rescale"]: r["volume_mq_days"]
        for r in result.records
        if r["kind"] == "acceleration"
    }
    for factor, vol in sorted(accel.items()):
        lines.append(f"  a x {factor:4.2f}: {vol:8.1f} Mq*days")
    for r in result.records:
        if r["kind"] == "tradeoff":
            lines.append(f"  {r['megaqubits']:6.1f} Mq -> {r['days']:6.2f} days")
    return "\n".join(lines)


register_scenario(Scenario(
    name="fig14",
    description="timescale sensitivities and the qubit/time trade-off (Fig. 14)",
    build=_build_fig14,
    render=_render_fig14,
    order=80,
))
