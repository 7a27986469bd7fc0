"""Fig. 11: SE-frequency optimization for factories and idle storage.

(a,b) Space-time volume of the 8T-to-CCZ factory against the number of SE
rounds per transversal gate, for alpha = 1/6 (0.86% one-round threshold)
and alpha = 1/2 (0.67%); the optimum sits at <= 1 round per gate.
(c,d) Idle-storage SE-period sweep: volume-per-target vs period for
several distances, and the error-rate curves showing the optimum where
idle error is comparable to gate error.

All curves run through the estimation pipeline's sweep engine
(:mod:`repro.estimator.sweep`): grid points share the memoized
distance-search and factory-cycle sub-models.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, Sequence

from repro.core.idle import storage_error_rate
from repro.core.logical_error import required_distance
from repro.core.params import ErrorParams, PhysicalParams
from repro.core.timing import timing_model
from repro.estimator.registry import Scenario, ScenarioResult, register_scenario
from repro.estimator.sweep import grid, sweep
from repro.factory.cultivation import CultivationModel
from repro.factory.layout import FactoryLayout

FACTORY_ALPHAS = (1.0 / 6.0, 1.0 / 2.0)
DEFAULT_SE_ROUNDS = (0.25, 0.5, 1.0, 2.0, 4.0)


def _factory_point(
    point: dict, target_ccz_error: float, physical: PhysicalParams
) -> dict:
    """Factory qubit-seconds per CCZ at one (alpha, SE-rounds) grid point."""
    error = ErrorParams(alpha=point["alpha"])
    rounds = point["se_rounds"]
    x = 1.0 / rounds
    # ~30 logical CNOT-qubit steps of Clifford inside the factory must
    # sit well under the CCZ target.
    distance = required_distance(target_ccz_error / 30.0, error, x)
    layout = FactoryLayout(distance, physical)
    cultivation = CultivationModel(7.7e-7, distance)
    stage = layout.cnot_stage_time() * rounds + layout.measurement_time()
    cycle = max(stage, 8.0 * cultivation.expected_time(
        timing_model(physical).se_round_time) / max(
            cultivation.copies_in_row(), 1))
    return {
        "volume_qubit_seconds": layout.num_atoms * cycle,
        "code_distance": distance,
    }


def factory_volume_vs_se_rounds(
    alpha: float,
    se_rounds: Sequence[float] = DEFAULT_SE_ROUNDS,
    target_ccz_error: float = 1.6e-11,
    physical: PhysicalParams = PhysicalParams(),
) -> Dict[float, float]:
    """Factory qubit-seconds per CCZ vs SE rounds per gate (Fig. 11(a,b)).

    For each SE frequency the factory code distance is re-chosen so the
    Clifford error of the distillation round stays below the CCZ target,
    then footprint x cycle time is charged.
    """
    records = sweep(
        partial(
            _factory_point,
            target_ccz_error=target_ccz_error,
            physical=physical,
        ),
        grid(alpha=(alpha,), se_rounds=tuple(se_rounds)),
    )
    return {r["se_rounds"]: r["volume_qubit_seconds"] for r in records}


def _idle_volume_point(
    point: dict,
    error: ErrorParams,
    physical: PhysicalParams,
    max_distance: int,
    t_round: float,
) -> dict:
    """Relative storage volume at one (rate-target, period) grid point."""
    target = point["rate_target"]
    period = point["period"]
    distance = None
    for d in range(3, max_distance + 1, 2):
        if storage_error_rate(d, period, error, physical) <= target:
            distance = d
            break
    if distance is None:
        return {"volume": math.inf, "code_distance": None}
    return {
        "volume": distance**2 * (1.0 + t_round / period),
        "code_distance": distance,
    }


def idle_volume_vs_period(
    rate_targets: Sequence[float] = (1e-11, 1e-13, 1e-15),
    periods: Sequence[float] | None = None,
    error: ErrorParams = ErrorParams(),
    physical: PhysicalParams = PhysicalParams(),
    max_distance: int = 201,
) -> Dict[float, Dict[float, float]]:
    """Relative storage volume vs SE period (Fig. 11(c)).

    For each period, the smallest distance meeting the per-qubit-per-second
    error target is chosen; the stored qubit then costs d^2 data atoms plus
    the ancilla visits amortized over the period (measurement pipelined):

        volume(dt) ~ d(dt)^2 * (1 + t_round / dt)

    Sparse SE inflates d (idle errors), dense SE inflates the ancilla
    share; the optimum location barely moves across the target families
    (the paper's distance curves).
    """
    if periods is None:
        periods = [10 ** (-3.5 + 2.5 * i / 39) for i in range(40)]
    t_round = timing_model(physical).se_round_time
    records = sweep(
        partial(
            _idle_volume_point,
            error=error,
            physical=physical,
            max_distance=max_distance,
            t_round=t_round,
        ),
        grid(rate_target=tuple(rate_targets), period=tuple(periods)),
    )
    out: Dict[float, Dict[float, float]] = {t: {} for t in rate_targets}
    for r in records:
        out[r["rate_target"]][r["period"]] = r["volume"]
    return out


def _idle_error_point(point: dict, distance: int, physical: PhysicalParams) -> dict:
    error = ErrorParams(p_phys=point["gate_error"])
    return {
        "rate": storage_error_rate(distance, point["period"], error, physical)
    }


def idle_error_vs_period(
    distance: int = 27,
    gate_error_rates: Sequence[float] = (5e-4, 1e-3, 2e-3),
    periods: Sequence[float] | None = None,
    physical: PhysicalParams = PhysicalParams(),
) -> Dict[float, Dict[float, float]]:
    """Error-rate curves for different gate-error rates (Fig. 11(d))."""
    if periods is None:
        periods = [10 ** (-4 + 3 * i / 39) for i in range(40)]
    records = sweep(
        partial(_idle_error_point, distance=distance, physical=physical),
        grid(gate_error=tuple(gate_error_rates), period=tuple(periods)),
    )
    out: Dict[float, Dict[float, float]] = {p: {} for p in gate_error_rates}
    for r in records:
        out[r["gate_error"]][r["period"]] = r["rate"]
    return out


def optimal_period_of_curve(curve: Dict[float, float]) -> float:
    """Argmin helper for the sweep outputs."""
    return min(curve, key=lambda period: curve[period])


# -- scenarios -----------------------------------------------------------------


def _build_fig11(
    jobs: int = 1,
    target_ccz_error: float = 1.6e-11,
) -> ScenarioResult:
    records = sweep(
        partial(
            _factory_point,
            target_ccz_error=target_ccz_error,
            physical=PhysicalParams(),
        ),
        grid(alpha=FACTORY_ALPHAS, se_rounds=DEFAULT_SE_ROUNDS),
    )
    return ScenarioResult(
        scenario="fig11",
        records=tuple(records),
        metadata={"target_ccz_error": target_ccz_error},
    )


def _render_fig11(result: ScenarioResult) -> str:
    lines = []
    for alpha in sorted({r["alpha"] for r in result.records}, reverse=False):
        lines.append(f"alpha = {alpha:.3f}:")
        curve = {
            r["se_rounds"]: r["volume_qubit_seconds"]
            for r in result.records
            if r["alpha"] == alpha
        }
        for rounds, vol in sorted(curve.items()):
            lines.append(f"  {rounds:5.2f} SE rounds/gate -> {vol:10.1f} qubit*s")
    return "\n".join(lines)


def _build_fig11_idle(
    jobs: int = 1,
    max_distance: int = 201,
) -> ScenarioResult:
    curves = idle_volume_vs_period(max_distance=max_distance)
    records = [
        {"rate_target": target, "period": period, "volume": volume}
        for target, curve in curves.items()
        for period, volume in curve.items()
    ]
    optima = {
        target: optimal_period_of_curve(curve)
        for target, curve in curves.items()
    }
    return ScenarioResult(
        scenario="fig11_idle",
        records=tuple(records),
        metadata={"optimal_period_s": optima},
    )


def _render_fig11_idle(result: ScenarioResult) -> str:
    lines = []
    for target, period in sorted(
        result.metadata["optimal_period_s"].items(), reverse=True
    ):
        lines.append(
            f"  rate target {target:.0e}: optimal SE period = "
            f"{period * 1e3:.2f} ms"
        )
    return "\n".join(lines)


register_scenario(Scenario(
    name="fig11",
    description="factory space-time volume vs SE rounds per gate (Fig. 11(a,b))",
    build=_build_fig11,
    render=_render_fig11,
    order=50,
))

register_scenario(Scenario(
    name="fig11_idle",
    description="idle-storage SE-period optimization (Fig. 11(c))",
    build=_build_fig11_idle,
    render=_render_fig11_idle,
    in_all=False,
))
