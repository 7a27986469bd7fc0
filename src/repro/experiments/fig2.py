"""Fig. 2: space-time comparison against lattice-surgery baselines.

Our transversal point vs Gidney-Ekera rescaled to 900 us QEC cycles at
several reaction times (the blue points) and the Beverland-et-al. estimate.
Headline shape: ~50x runtime reduction at comparable footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.algorithms.factoring import estimate_factoring
from repro.baselines.beverland import beverland_atom_estimate
from repro.baselines.gidney_ekera import ge_rescaled_to_atoms
from repro.core.params import ArchitectureConfig
from repro.estimator.registry import Scenario, ScenarioResult, register_scenario
from repro.estimator.sweep import grid, sweep

DEFAULT_GE_REACTION_TIMES = (1e-3, 3e-3, 10e-3, 30e-3)


@dataclass(frozen=True)
class Fig2Point:
    label: str
    megaqubits: float
    days: float

    @property
    def megaqubit_days(self) -> float:
        return self.megaqubits * self.days


def _ge_point(point: dict) -> dict:
    tr = point["reaction_time"]
    ge = ge_rescaled_to_atoms(reaction_time=tr)
    return {
        "label": f"GE19 @900us, tr={tr * 1e3:.0f}ms",
        "megaqubits": ge.megaqubits,
        "days": ge.runtime_days,
    }


def generate(
    config: ArchitectureConfig = ArchitectureConfig(),
    ge_reaction_times=DEFAULT_GE_REACTION_TIMES,
) -> List[Fig2Point]:
    """All points of the comparison figure."""
    points: List[Fig2Point] = []
    ours = estimate_factoring(config=config)
    points.append(
        Fig2Point("transversal (this work)", ours.physical_qubits / 1e6,
                  ours.runtime_seconds / 86400.0)
    )
    for r in sweep(
        _ge_point, grid(reaction_time=tuple(ge_reaction_times)),
    ):
        points.append(Fig2Point(r["label"], r["megaqubits"], r["days"]))
    bev = beverland_atom_estimate()
    points.append(Fig2Point("Beverland et al.", bev.megaqubits, bev.runtime_days))
    return points


def speedup_vs_ge(config: ArchitectureConfig = ArchitectureConfig()) -> float:
    """Runtime ratio against the 10 ms-reaction GE19 point (paper: ~50x)."""
    ours = estimate_factoring(config=config)
    ge = ge_rescaled_to_atoms(reaction_time=10e-3)
    return ge.runtime_seconds / ours.runtime_seconds


def render(points: List[Fig2Point]) -> str:
    lines = [f"{'configuration':32s} {'Mqubits':>8s} {'days':>10s} {'Mq*days':>10s}"]
    for p in points:
        lines.append(
            f"{p.label:32s} {p.megaqubits:8.1f} {p.days:10.2f} {p.megaqubit_days:10.1f}"
        )
    return "\n".join(lines)


# -- scenario ------------------------------------------------------------------


def _build_fig2(jobs: int = 1) -> ScenarioResult:
    points = generate()
    return ScenarioResult(
        scenario="fig2",
        records=tuple(
            {"label": p.label, "megaqubits": p.megaqubits, "days": p.days}
            for p in points
        ),
        metadata={"speedup_vs_ge_10ms": speedup_vs_ge()},
    )


def _render_fig2(result: ScenarioResult) -> str:
    return render([
        Fig2Point(r["label"], r["megaqubits"], r["days"])
        for r in result.records
    ])


register_scenario(Scenario(
    name="fig2",
    description="space-time comparison vs lattice-surgery baselines (Fig. 2)",
    build=_build_fig2,
    render=_render_fig2,
    order=30,
))
