"""Fig. 6: logical error model with transversal gates.

(a) Monte-Carlo logical error per CNOT vs code distance and CNOT density,
fitted with Eq. (4) -- our MWPM/sequential-decoder rendition of the
paper's MLE-data fit.  (b) analytic space-time volume per logical CNOT vs
SE rounds per CNOT (Eq. 6).

Seed derivation: ``seed`` is the root of a
:class:`numpy.random.SeedSequence`; every Monte-Carlo point -- each
memory distance and each (distance, cnot_every) pair -- runs on its own
spawned child stream.  Earlier revisions passed the *same* integer seed
to every sweep point, so nominally-independent points shared correlated
noise realizations and the Eq. (2)/(4) fits were biased; spawning
decorrelates the sweep while keeping the whole figure reproducible from
one root seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.logical_error import cnot_spacetime_volume
from repro.core.params import ErrorParams
from repro.estimator.registry import Scenario, ScenarioResult, register_scenario
from repro.estimator.sweep import grid, sweep
from repro.decoder.analysis import (
    AlphaFit,
    MemoryFit,
    cnot_experiment_rate,
    fit_alpha,
    fit_memory_model,
    memory_logical_error,
    per_round_rate,
)


@dataclass(frozen=True)
class Fig6aResult:
    """Monte-Carlo data points and the fitted model constants."""

    memory_fit: MemoryFit
    alpha_fit: AlphaFit
    data: Tuple[Tuple[int, float, float], ...]  # (d, x, per-cnot rate)


def generate_fig6a(
    p: float = 0.003,
    distances: Sequence[int] = (3, 5),
    cnot_every: Sequence[int] = (1, 2),
    shots: int = 1500,
    seed: int = 29,
    workers: int = 1,
    target_failures: Optional[int] = None,
    noise=None,
) -> Fig6aResult:
    """Run the MC experiments and fit Eq. (4).

    Args:
        shots: shots per point (the cap when ``target_failures`` is set).
        seed: root seed; each point gets its own spawned child stream.
        workers: parallel decoding-engine workers per point.
        target_failures: when set, each point streams shot batches until
            this many failures are observed (or ``shots`` is reached).
        noise: circuit noise model for every experiment -- a
            :class:`~repro.noise.models.NoiseModel` instance or registry
            name; ``None`` keeps uniform depolarizing at ``p``.
    """
    root = np.random.SeedSequence(seed)
    memory_seeds = root.spawn(len(distances))
    rates = []
    for d, point_seed in zip(distances, memory_seeds):
        rounds = d + 1
        res = memory_logical_error(
            d, rounds, p, shots, seed=point_seed,
            workers=workers, target_failures=target_failures, noise=noise,
        )
        rates.append(per_round_rate(res, rounds))
    memory_fit = fit_memory_model(list(distances), rates)
    data: List[Tuple[int, float, float]] = []
    cnot_seeds = iter(root.spawn(len(distances) * len(cnot_every)))
    for d in distances:
        for every in cnot_every:
            res, n = cnot_experiment_rate(
                d, 6, p, every, shots, seed=next(cnot_seeds),
                workers=workers, target_failures=target_failures,
                noise=noise,
            )
            if res.failures == 0:
                continue
            data.append((d, 1.0 / every, res.rate / n))
    alpha_fit = fit_alpha(data, memory_fit.prefactor_c, memory_fit.lam)
    return Fig6aResult(memory_fit=memory_fit, alpha_fit=alpha_fit, data=tuple(data))


DEFAULT_SE_ROUNDS_PER_CNOT = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def _fig6b_point(point: dict, error: ErrorParams, target_error: float) -> dict:
    rounds = point["se_rounds"]
    return {"volume": cnot_spacetime_volume(1.0 / rounds, error, target_error)}


def generate_fig6b(
    error: ErrorParams = ErrorParams(),
    se_rounds_per_cnot: Sequence[float] = DEFAULT_SE_ROUNDS_PER_CNOT,
    target_error: float = 1e-12,
) -> Dict[float, float]:
    """Volume per CNOT vs SE rounds per CNOT (x = 1/rounds)."""
    records = sweep(
        partial(_fig6b_point, error=error, target_error=target_error),
        grid(se_rounds=tuple(se_rounds_per_cnot)),
    )
    return {r["se_rounds"]: r["volume"] for r in records}


def render_fig6b(curve: Dict[float, float]) -> str:
    lines = [f"{'SE rounds/CNOT':>15s} {'rel. volume':>12s}"]
    for rounds, volume in sorted(curve.items()):
        lines.append(f"{rounds:15.2f} {volume:12.1f}")
    return "\n".join(lines)


# -- scenario ------------------------------------------------------------------


def _build_fig6b(jobs: int = 1, target_error: float = 1e-12) -> ScenarioResult:
    records = sweep(
        partial(_fig6b_point, error=ErrorParams(), target_error=target_error),
        grid(se_rounds=DEFAULT_SE_ROUNDS_PER_CNOT),
    )
    return ScenarioResult(
        scenario="fig6b",
        records=tuple(records),
        metadata={"target_error": target_error},
    )


def _render_fig6b_result(result: ScenarioResult) -> str:
    return render_fig6b({r["se_rounds"]: r["volume"] for r in result.records})


def _lint_fig6():
    """Smallest instances of the Fig. 6(a) Monte-Carlo circuit families."""
    from repro.sim.memory import memory_circuit, transversal_cnot_circuit

    return {
        "memory_d3": memory_circuit(3, 4, 0.003),
        "cnot_d3": transversal_cnot_circuit(3, 6, 0.003, (2, 4)),
    }


register_scenario(Scenario(
    name="fig6b",
    description="space-time volume per CNOT vs SE rounds per CNOT (Fig. 6(b))",
    build=_build_fig6b,
    render=_render_fig6b_result,
    order=40,
    lint_circuits=_lint_fig6,
))
