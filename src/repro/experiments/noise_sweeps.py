"""Noise-model scenario sweeps: biased and movement-aware memory.

Two Monte-Carlo scenarios exposed through the scenario registry (and
therefore the ``python -m repro`` CLI and the HTTP service) that exercise
the pluggable noise layer end to end:

* ``memory_biased`` -- memory experiments under :class:`BiasedPauli` noise
  at several Z:X bias ratios.  Every bias point samples *one* syndrome
  table and decodes it with both the DEM-weighted MWPM and the
  uniform-weight baseline graph, so each record is a paired
  weighted-vs-uniform comparison: as the bias grows, the DEM reweighting
  is what keeps the matching metric aligned with the actual channel.
* ``memory_movement`` -- memory experiments under :class:`MovementAware`
  noise across coherence times: the AOD-validated per-round interleave
  move of :func:`repro.noise.models.transversal_move_schedule` is
  converted to idle error through :mod:`repro.core.idle`, tying the
  movement layer's physical durations to the sampled noise.

Both scenarios run small fixed-seed experiments by default (they sit on
the CLI smoke path); raise ``shots`` via ``--param`` for tighter rates.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.params import PhysicalParams
from repro.decoder.analysis import paired_failure_counts
from repro.decoder.engine import DecodingEngine
from repro.estimator.registry import Scenario, ScenarioResult, register_scenario
from repro.estimator.sweep import grid, sweep
from repro.noise.models import BiasedPauli, MovementAware
from repro.sim.memory import memory_circuit

DEFAULT_BIASES = (1.0, 4.0, 16.0)
DEFAULT_COHERENCE_TIMES = (0.05, 0.5, 10.0)


def _biased_point(point: dict, distance: int, rounds: int, p: float, shots: int, seed: int, basis: str) -> dict:
    """One bias value: paired weighted-vs-uniform decode of shared samples."""
    bias = point["bias"]
    # X-basis memory by default: the Z-heavy channel lands in the
    # detecting sector, so the weighted-vs-uniform gap stays visible as
    # the bias grows (a Z-basis memory trends to zero failures instead).
    circuit = memory_circuit(
        distance, rounds, p, basis=basis, noise=BiasedPauli(p, bias=bias)
    )
    out = paired_failure_counts(
        circuit,
        {"weighted": "mwpm", "uniform": "mwpm_uniform"},
        shots,
        seed=np.random.SeedSequence(seed),
    )
    return {
        "shots": shots,
        "failures_weighted": out["weighted"],
        "failures_uniform": out["uniform"],
        "rate_weighted": out["weighted"] / shots,
        "rate_uniform": out["uniform"] / shots,
    }


def _movement_point(point: dict, distance: int, rounds: int, p: float, shots: int, seed: int) -> dict:
    """One coherence time: movement-aware memory through the engine."""
    physical = PhysicalParams().rescaled(coherence_time=point["coherence_time"])
    model = MovementAware(p, physical=physical, distance=distance)
    circuit = memory_circuit(distance, rounds, p, noise=model)
    with DecodingEngine(circuit, "mwpm") as engine:
        res = engine.run(shots, seed=np.random.SeedSequence(seed))
    return {
        "move_duration_s": model.move_duration,
        "idle_p": model.idle_p,
        "shots": res.shots,
        "failures": res.failures,
        "rate": res.rate,
    }


def _build_memory_biased(
    jobs: int = 1,
    distance: int = 3,
    rounds: int = 2,
    p: float = 0.004,
    shots: int = 400,
    seed: int = 53,
    basis: str = "X",
) -> ScenarioResult:
    records = sweep(
        partial(
            _biased_point,
            distance=distance, rounds=rounds, p=p, shots=shots, seed=seed,
            basis=basis,
        ),
        grid(bias=DEFAULT_BIASES),
    )
    return ScenarioResult(
        scenario="memory_biased",
        records=tuple(records),
        metadata={
            "distance": distance, "rounds": rounds, "p": p, "seed": seed,
            "basis": basis,
        },
    )


def _render_memory_biased(result: ScenarioResult) -> str:
    lines = [
        f"{'bias':>6s} {'shots':>6s} {'weighted':>9s} {'uniform':>8s}"
    ]
    for r in result.records:
        lines.append(
            f"{r['bias']:6.1f} {r['shots']:6d} "
            f"{r['failures_weighted']:9d} {r['failures_uniform']:8d}"
        )
    lines.append("(failures per shared sample table; weighted = DEM-LLR MWPM)")
    return "\n".join(lines)


def _build_memory_movement(
    jobs: int = 1,
    distance: int = 3,
    rounds: int = 2,
    p: float = 0.002,
    shots: int = 400,
    seed: int = 59,
) -> ScenarioResult:
    records = sweep(
        partial(
            _movement_point,
            distance=distance, rounds=rounds, p=p, shots=shots, seed=seed,
        ),
        grid(coherence_time=DEFAULT_COHERENCE_TIMES),
    )
    return ScenarioResult(
        scenario="memory_movement",
        records=tuple(records),
        metadata={"distance": distance, "rounds": rounds, "p": p, "seed": seed},
    )


def _render_memory_movement(result: ScenarioResult) -> str:
    lines = [
        f"{'T_coh (s)':>10s} {'move (s)':>10s} {'idle p':>10s} {'failures':>9s} {'rate':>8s}"
    ]
    for r in result.records:
        lines.append(
            f"{r['coherence_time']:10.2f} {r['move_duration_s']:10.2e} "
            f"{r['idle_p']:10.2e} {r['failures']:9d} {r['rate']:8.4f}"
        )
    return "\n".join(lines)


def _lint_memory_biased():
    """Smallest-instance circuits the biased sweep decodes, one per bias."""
    return {
        f"bias{bias:g}": memory_circuit(
            3, 2, 0.004, basis="X", noise=BiasedPauli(0.004, bias=bias)
        )
        for bias in DEFAULT_BIASES
    }


def _lint_memory_movement():
    model = MovementAware(
        0.002,
        physical=PhysicalParams().rescaled(coherence_time=DEFAULT_COHERENCE_TIMES[0]),
        distance=3,
    )
    return {"movement": memory_circuit(3, 2, 0.002, noise=model)}


register_scenario(Scenario(
    name="memory_biased",
    description="memory logical error under biased Pauli noise: DEM-weighted vs uniform MWPM",
    build=_build_memory_biased,
    render=_render_memory_biased,
    order=110,
    in_all=False,
    lint_circuits=_lint_memory_biased,
))

register_scenario(Scenario(
    name="memory_movement",
    description="memory logical error under movement-aware noise vs coherence time",
    build=_build_memory_movement,
    render=_render_memory_movement,
    order=111,
    in_all=False,
    lint_circuits=_lint_memory_movement,
))
