"""Monte-Carlo logical-error estimation and model fitting (Fig. 6(a)).

Runs memory / transversal-CNOT experiments through the frame sampler and
the batched decoding engine (:mod:`repro.decoder.engine`), estimates
logical error rates, and fits the paper's heuristic model:

* Eq. (2) memory fit: log p_L = log C - ((d+1)/2) log Lambda.
* Eq. (4) transversal fit: extracts the decoding factor alpha from
  per-CNOT logical error rates at different CNOT densities x.

All Monte-Carlo entry points accept a decoder registry name, a worker
count for sharded parallel decoding, and an optional ``target_failures``
for streaming early-stop sampling (``shots`` then acts as the cap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from repro.decoder.engine import DecodingEngine, EngineResult, SeedLike, make_decoder
from repro.sim.circuit import Circuit
from repro.sim.frame import FrameSimulator
from repro.sim.memory import NoiseLike, memory_circuit, transversal_cnot_experiment


def run_decoding_experiment(
    circuit: Circuit,
    shots: int,
    seed: SeedLike = 0,
    observable: Optional[int] = 0,
    *,
    decoder: str = "mwpm",
    detector_meta: Optional[Sequence[Tuple[int, str, int, int]]] = None,
    basis: str = "Z",
    workers: int = 1,
    shard_shots: int = 1024,
    target_failures: Optional[int] = None,
) -> EngineResult:
    """Sample a noisy circuit and decode it through the batched engine.

    Args:
        circuit: noisy circuit to sample.
        shots: shot count (the cap when ``target_failures`` is set).
        seed: int or :class:`numpy.random.SeedSequence`; per-shard streams
            are derived from it with ``SeedSequence.spawn``.
        observable: failure column, or ``None`` to fail on any observable.
        decoder: registry name ("mwpm", "union_find", "sequential").
        detector_meta / basis: forwarded to the "sequential" decoder.
        workers: parallel decoding workers (results are worker-invariant).
        shard_shots: shots per engine shard.
        target_failures: when set, stream shard batches until this many
            failures are seen (or ``shots`` is exhausted).
    """
    with DecodingEngine(
        circuit,
        decoder,
        detector_meta=detector_meta,
        basis=basis,
        observable=observable,
        shard_shots=shard_shots,
        workers=workers,
    ) as engine:
        if target_failures is not None:
            return engine.run_until(target_failures, max_shots=shots, seed=seed)
        return engine.run(shots, seed=seed)


def paired_failure_counts(
    circuit: Circuit,
    decoders: Dict[str, object],
    shots: int,
    seed: SeedLike = 0,
    *,
    dem=None,
    shard_shots: int = 1024,
) -> Dict[str, int]:
    """Decode one shared sampled syndrome table with several decoders.

    The paired-comparison convention every weighted-vs-uniform and
    decoder-tradeoff surface uses: the circuit is sampled *once* through
    the packed pipeline (engine shard layout, so the table matches what
    ``DecodingEngine.run`` would draw for the same seed), and every
    decoder consumes the identical bit-packed keys -- failure-count
    differences are decoder differences, not sampling noise.

    Args:
        circuit: noisy circuit to sample.
        decoders: mapping label -> decoder registry name or already-built
            :class:`~repro.decoder.base.Decoder` (iteration order kept).
        shots: shots sampled once and decoded by everyone.
        seed: int or :class:`numpy.random.SeedSequence`.
        dem: detector error model to build named decoders from; extracted
            once from ``circuit`` when omitted.
        shard_shots: engine shard size (changes the sampled stream, not
            the convention).

    Returns:
        label -> failure count on observable column 0.
    """
    if not decoders:
        return {}
    if dem is None and any(isinstance(d, str) for d in decoders.values()):
        dem = FrameSimulator(circuit).detector_error_model()
    built = {
        label: make_decoder(d, dem) if isinstance(d, str) else d
        for label, d in decoders.items()
    }
    sampler = next(iter(built.values()))
    with DecodingEngine(circuit, sampler, shard_shots=shard_shots) as engine:
        det_keys, obs_keys = engine.collect(shots, seed=seed)
    observables = np.unpackbits(obs_keys, axis=1, count=circuit.num_observables)
    return {
        label: int(
            (decoder.decode_packed(det_keys, circuit.num_detectors)[:, 0]
             ^ observables[:, 0]).sum()
        )
        for label, decoder in built.items()
    }


def memory_logical_error(
    distance: int,
    rounds: int,
    p: float,
    shots: int,
    seed: SeedLike = 0,
    basis: str = "Z",
    *,
    decoder: str = "mwpm",
    workers: int = 1,
    target_failures: Optional[int] = None,
    noise: NoiseLike = None,
) -> EngineResult:
    """Logical error of a distance-d memory experiment (whole run).

    ``noise`` selects the circuit noise model (a
    :class:`~repro.noise.models.NoiseModel` instance or registry name);
    the scalar ``p`` stays as uniform-depolarizing sugar.
    """
    circuit = memory_circuit(distance, rounds, p, basis, noise=noise)
    return run_decoding_experiment(
        circuit,
        shots,
        seed,
        decoder=decoder,
        workers=workers,
        target_failures=target_failures,
    )

def per_round_rate(result: EngineResult, rounds: int) -> float:
    """Convert a whole-run failure probability to a per-round rate.

    Inverts p_run = (1 - (1 - 2 p_round)^rounds) / 2.
    """
    p_run = min(result.rate, 0.4999)
    return 0.5 * (1.0 - (1.0 - 2.0 * p_run) ** (1.0 / rounds))


def cnot_experiment_rate(
    distance: int,
    rounds: int,
    p: float,
    cnot_every: int,
    shots: int,
    seed: SeedLike = 0,
    decoder: str = "sequential",
    *,
    workers: int = 1,
    target_failures: Optional[int] = None,
    noise: NoiseLike = None,
) -> Tuple[EngineResult, int]:
    """Two-patch transversal-CNOT experiment; returns (result, num_cnots).

    A CNOT is inserted after every ``cnot_every``-th SE round, i.e.
    x = 1/cnot_every CNOTs per round.  A shot fails when either patch's
    logical-Z observable is mispredicted (a logical CNOT error).

    Args:
        decoder: registry name: "sequential" (correlated two-pass MWPM,
            full distance) by default; "mwpm" is one MWPM on the
            naively-decomposed joint graph, a deliberately weaker decoder
            for ablations.
        workers / target_failures: forwarded to the decoding engine.
    """
    cnot_rounds = list(range(cnot_every, rounds, cnot_every))
    builder = transversal_cnot_experiment(
        distance, rounds, p, cnot_rounds, noise=noise
    )
    result = run_decoding_experiment(
        builder.circuit,
        shots,
        seed,
        observable=None,
        decoder=decoder,
        detector_meta=builder.detector_meta,
        workers=workers,
        target_failures=target_failures,
    )
    return result, len(cnot_rounds)


# -- model fits ----------------------------------------------------------------


@dataclass(frozen=True)
class MemoryFit:
    """Fitted Eq. (2) constants."""

    prefactor_c: float
    lam: float


def fit_memory_model(distances: Sequence[int], per_round: Sequence[float]) -> MemoryFit:
    """Least-squares fit of log p = log C - ((d+1)/2) log Lambda."""
    if len(distances) != len(per_round) or len(distances) < 2:
        raise ValueError("need >= 2 (distance, rate) pairs")
    xs = np.array([(d + 1) / 2.0 for d in distances])
    ys = np.array([math.log(max(r, 1e-12)) for r in per_round])
    slope, intercept = np.polyfit(xs, ys, 1)
    return MemoryFit(prefactor_c=math.exp(intercept), lam=math.exp(-slope))


@dataclass(frozen=True)
class AlphaFit:
    """Fitted Eq. (4) decoding factor (and refitted prefactor)."""

    alpha: float
    prefactor_c: float
    residual: float


def fit_alpha(
    data: Sequence[Tuple[int, float, float]],
    prefactor_c: float,
    lam: float,
    fit_prefactor: bool = True,
) -> AlphaFit:
    """Fit alpha (and optionally C) to per-CNOT logical error rates.

    Args:
        data: triples (distance, cnots_per_round_x, per_cnot_rate).
        prefactor_c: initial/fixed prefactor from the memory fit.
        lam: memory-fit Lambda, held fixed.
        fit_prefactor: when True (default) C floats jointly with alpha,
            absorbing boundary effects of the finite-size experiments.
    """
    if not data:
        raise ValueError("no data to fit")

    def loss(params: np.ndarray) -> float:
        alpha = math.exp(float(params[0]))
        c = math.exp(float(params[1])) if fit_prefactor else prefactor_c
        total = 0.0
        for distance, x, rate in data:
            total += (
                math.log(max(rate, 1e-12))
                - math.log(eq4_prediction(distance, x, c, lam, alpha))
            ) ** 2
        return total

    x0 = np.array([math.log(0.2), math.log(max(prefactor_c, 1e-6))])
    best = optimize.minimize(loss, x0=x0, method="Nelder-Mead")
    fitted_c = math.exp(float(best.x[1])) if fit_prefactor else prefactor_c
    return AlphaFit(
        alpha=math.exp(float(best.x[0])),
        prefactor_c=fitted_c,
        residual=float(best.fun),
    )


def eq4_prediction(distance: int, x: float, prefactor_c: float, lam: float, alpha: float) -> float:
    """Evaluate Eq. (4) with explicit constants (for plotting/fit checks)."""
    return 2.0 * prefactor_c / x * ((alpha * x + 1.0) / lam) ** ((distance + 1) / 2.0)
