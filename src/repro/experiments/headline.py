"""Headline scenario: the paper's top-line estimate plus Fig. 2 context.

This is what a bare ``python -m repro`` prints: the 2048-bit factoring
point of the transversal architecture (~19 M qubits, ~5.6 days) and the
comparison table against the lattice-surgery baselines.
"""

from __future__ import annotations

from repro.algorithms.factoring import estimate_factoring
from repro.estimator.registry import Scenario, ScenarioResult, register_scenario
from repro.experiments import fig2


def _build_headline(jobs: int = 1) -> ScenarioResult:
    est = estimate_factoring()
    points = fig2.generate()
    records = [{
        "kind": "headline",
        "physical_qubits": est.physical_qubits,
        "runtime_seconds": est.runtime_seconds,
        "num_factories": est.num_factories,
        "logical_error": est.logical_error,
        "total_ccz": est.total_ccz,
    }]
    records.extend(
        {"kind": "fig2_point", "label": p.label, "megaqubits": p.megaqubits,
         "days": p.days}
        for p in points
    )
    return ScenarioResult(
        scenario="headline",
        records=tuple(records),
        metadata={"speedup_vs_ge_10ms": fig2.speedup_vs_ge()},
    )


def _render_headline(result: ScenarioResult) -> str:
    head = result.records[0]
    points = [
        fig2.Fig2Point(r["label"], r["megaqubits"], r["days"])
        for r in result.records
        if r["kind"] == "fig2_point"
    ]
    lines = [
        "== 2048-bit factoring, transversal architecture ==",
        f"  {head['physical_qubits'] / 1e6:.1f} M qubits, "
        f"{head['runtime_seconds'] / 86400:.2f} days, "
        f"{head['num_factories']} factories",
        "",
        "== Fig. 2 comparison ==",
        fig2.render(points),
        f"  speed-up vs GE19 @900us: {result.metadata['speedup_vs_ge_10ms']:.0f}x",
    ]
    return "\n".join(lines)


register_scenario(Scenario(
    name="headline",
    description="headline 2048-bit factoring estimate + Fig. 2 comparison",
    build=_build_headline,
    render=_render_headline,
    order=0,
    in_all=False,
))
