"""The four Monte-Carlo estimator workloads and their output checks.

A workload is a ``setup`` (everything before the first shot: circuit
build, DEM extraction, program compile, decoder build, pool start) and a
``unit``: one fixed-size piece of estimator traffic whose seed is a pure
function of ``(workload seed, unit index)``.  The timed phase repeats
units until its time is up; the same seed and unit count give the same
outcomes whatever the worker count, which is what lets a ``workers=1``
traced replay be checked against the timed run exactly.

Why these four: each one loads a different layer of the stack.

* ``brute_d11_uf`` -- paper-relevant distance where syndromes almost never
  recur: the packed sampler and the union-find arena do the work, while
  dedup, the <=2-defect fast path and the syndrome cache do almost none.
* ``brute_d5_mwpm`` -- syndromes recur: dedup, the fast path and the
  cross-batch cache serve most rows, and the per-shard engine overhead is
  at its largest (1024-shot shards).
* ``rare_sweep`` -- importance-sampled traffic (``memory_rare``): tilted
  syndromes are dense and unique, so dense MWPM decoding dominates and
  ``ImportanceSampler`` replaces the circuit sampler.
* ``biased_paired`` -- ``memory_biased``: the only traffic through
  ``DecodingEngine.collect``, the shard transport and PAULI_CHANNEL
  sampling; one process, two decoders per sampled table.

The checks are statistical bands around reference runs (``reference.py``,
seeds disjoint from any benchmark seed), not pinned counts, so a change
that alters the random draw stream on purpose still passes when its
estimates are right.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy import stats

from repro.core.cache import clear_caches
from repro.decoder import analysis as _analysis
from repro.decoder import engine as _engine
from repro.estimator import rare as _rare
from repro.noise import dem as _dem
from repro.noise.models import BiasedPauli
from repro.sim import memory as _memory
from repro.sim import periodic as _periodic

# repro.estimator re-exports the function ``sweep`` under the submodule's
# name, so the module itself is looked up by its full path.
_sweep = importlib.import_module("repro.estimator.sweep")

# Two-sided level of every output check: a correct program misses a band
# about once per ten thousand checks.
CHECK_LEVEL = 0.9999

# A seed no tuning run used; later gain claims validate on it.
HELD_OUT_SEED = 900913

# Reference runs (see reference.py): brute-force (shots, failures) and,
# per importance-sampled point, the weighted rate and its standard error.
REFERENCE: Dict[str, Any] = {
    "brute_d11_uf": {"shots": 1048576, "failures": 0},
    "brute_d5_mwpm": {"shots": 8388608, "failures": 1563},
    "rare_sweep": {
        "d5_p0.001": {"shots": 2097152, "rate": 1.792e-04, "std_error": 3.737e-06},
        "d5_p0.0005": {"shots": 2097152, "rate": 2.95e-05, "std_error": 1.039e-06},
        "d7_p0.001": {"shots": 2097152, "rate": 1.459e-05, "std_error": 1.013e-06},
        "d7_p0.0005": {"shots": 2097152, "rate": 1.199e-06, "std_error": 1.959e-07},
    },
}

Checks = Dict[str, Optional[str]]  # check label -> problem, None if passed


def unit_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Root seed of unit ``index`` (disjoint from reference seeds)."""
    return np.random.SeedSequence([seed, index])


def start_pool(engine) -> float:
    """Start the engine's worker pool as part of set-up; returns seconds.

    The engine starts its pool lazily on the first batch and has no
    public hook for it, so its private one is called.
    """
    start = time.perf_counter()
    if engine.workers > 1:
        engine._ensure_pool()
    return time.perf_counter() - start


@dataclass
class UnitResult:
    """One unit of traffic: sampled shots, shards, and the exact outcome.

    ``waves`` holds ``(point, shots, wall seconds)`` per engine call for
    workloads whose throughput is taken per point.
    """

    shots: int
    shards: int
    outcome: Tuple
    waves: List[Tuple[Any, int, float]] = field(default_factory=list)


Runs = List[Tuple[Optional[UnitResult], float]]  # (result or None, wall)


def unit_throughput(runs: Runs) -> float:
    """Shots of all units per second of unit wall time."""
    done = [(r.shots, wall) for r, wall in runs if r is not None]
    return sum(s for s, _ in done) / sum(w for _, w in done) if done else 0.0


@dataclass
class Workload:
    name: str
    rounds: int
    setup: Callable[[int], Any]
    unit: Callable[[Any, int, int], UnitResult]
    check: Callable[[Any, List[UnitResult]], Checks]
    # False for a workload that decodes in one process by definition.
    parallel: bool = True
    throughput: Callable[[Runs], float] = unit_throughput


def fresh_setup(workload: Workload, workers: int):
    """``workload.setup`` with every repro cache emptied first."""
    clear_caches()
    return workload.setup(workers)


# -- brute force ---------------------------------------------------------------


@dataclass
class BruteState:
    engine: Any
    pool_start_s: float

    def close(self) -> None:
        self.engine.close()


def brute_band(reference: Dict[str, int], shots: int) -> Tuple[int, int]:
    """Failure-count band for ``shots`` new shots at the reference rate.

    The reference rate is taken at both ends of its exact (Clopper-
    Pearson) interval and the band spans the binomial quantiles there, so
    the reference's own uncertainty widens the band.  With zero reference
    failures the lower end is 0 and only the upper bound binds.
    """
    tail = (1.0 - CHECK_LEVEL) / 2.0
    n, k = reference["shots"], reference["failures"]
    rate_low = stats.beta.ppf(tail, k, n - k + 1) if k > 0 else 0.0
    rate_high = stats.beta.ppf(1.0 - tail, k + 1, n - k)
    low = int(stats.binom.ppf(tail, shots, rate_low)) if k > 0 else 0
    return low, int(stats.binom.ppf(1.0 - tail, shots, rate_high))


def _brute(name, distance, rounds, p, decoder, shard_shots, unit_shots):
    def setup(workers: int) -> BruteState:
        circuit = _memory.memory_circuit(distance, rounds, p)
        engine = _engine.DecodingEngine(
            circuit, decoder, shard_shots=shard_shots, workers=workers
        )
        _periodic.compile_program(circuit)
        return BruteState(engine, start_pool(engine))

    def unit(state: BruteState, seed: int, index: int) -> UnitResult:
        res = state.engine.run(unit_shots, seed=unit_seed(seed, index))
        return UnitResult(res.shots, res.shards, (res.failures,))

    def check(state: BruteState, units: List[UnitResult]) -> Checks:
        shots = sum(u.shots for u in units)
        failures = sum(u.outcome[0] for u in units)
        low, high = brute_band(REFERENCE[name], shots)
        problem = None
        if not low <= failures <= high:
            problem = (f"{failures} failures in {shots} shots, outside the "
                       f"reference band [{low}, {high}]")
        return {f"{name}.failure_band": problem}

    return Workload(name, rounds, setup, unit, check)


BRUTE_D11_UF = _brute("brute_d11_uf", 11, 12, 5e-4, "union_find", 4096, 8192)
BRUTE_D5_MWPM = _brute("brute_d5_mwpm", 5, 5, 1e-3, "mwpm", 1024, 32768)


# -- importance-sampled sweep --------------------------------------------------

RARE_DISTANCES = (5, 7)
RARE_PS = (1e-3, 5e-4)
RARE_ROUNDS = 5
RARE_WAVE_SHOTS = 2048
# One seeding wave per point, then one adaptive wave.
RARE_TOTAL_SHOTS = (len(RARE_DISTANCES) * len(RARE_PS) + 1) * RARE_WAVE_SHOTS


@dataclass
class RareState:
    engines: Dict[Tuple[int, float], Any]
    pool_start_s: float
    # Every wave's EngineResult merged per point, for the output check.
    totals: Dict[Tuple[int, float], Any] = field(default_factory=dict)

    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()


def _rare_setup(workers: int) -> RareState:
    engines = {}
    pool_start_s = 0.0
    for d in RARE_DISTANCES:
        for p in RARE_PS:
            circuit = _memory.memory_circuit(d, RARE_ROUNDS, p)
            engines[(d, p)] = _rare.rare_engine(
                circuit, "mwpm", min_failure_weight=(d + 1) // 2,
                workers=workers,
            )
            pool_start_s += start_pool(engines[(d, p)])
    return RareState(engines, pool_start_s)


def _rare_unit(state: RareState, seed: int, index: int) -> UnitResult:
    waves = []
    shards = []

    def run_point(point, shots, seq):
        key = (point["distance"], point["p"])
        start = time.perf_counter()
        result = state.engines[key].run(shots, seed=seq)
        waves.append((key, shots, time.perf_counter() - start))
        total = state.totals.get(key)
        state.totals[key] = result if total is None else total + result
        shards.append(result.shards)
        return result

    records = _sweep.adaptive_shots(
        run_point,
        _sweep.grid(distance=RARE_DISTANCES, p=RARE_PS),
        total_shots=RARE_TOTAL_SHOTS,
        wave_shots=RARE_WAVE_SHOTS,
        seed=int(unit_seed(seed, index).generate_state(1, np.uint64)[0]),
    )
    # The weighted rate is a float sum in shard order, worker-count
    # invariant bit for bit, so a traced replay must reproduce it exactly.
    outcome = tuple(
        (r["shots"], r["failures"], r["weighted_rate"], r["waves"])
        for r in records
    )
    return UnitResult(RARE_TOTAL_SHOTS, sum(shards), outcome, waves)


def _rare_throughput(runs: Runs) -> float:
    """Shots per second of a sweep spending equal shots on every point.

    Which point gets the adaptive waves depends on the seed, and a d=7
    wave costs about three d=5 waves, so shots per unit wall would mostly
    measure the seed's allocation.  Each point's wave throughput (its
    waves' shots over their wall time) is measured instead and combined at
    a fixed, equal shot mix.  The sweep's own time between waves
    (allocation, CI bookkeeping, records) is added per shot, so
    ``adaptive_shots`` overhead still shows end to end.
    """
    per_point: Dict[Any, List[float]] = {}  # point -> [shots, wall]
    shots = between = 0.0
    for result, wall in runs:
        if result is None:
            continue
        for point, wave_shots, wave_wall in result.waves:
            totals = per_point.setdefault(point, [0.0, 0.0])
            totals[0] += wave_shots
            totals[1] += wave_wall
        shots += result.shots
        between += wall - sum(wave_wall for _, _, wave_wall in result.waves)
    if not per_point:
        return 0.0
    per_shot = statistics.mean(w / s for s, w in per_point.values())
    return 1.0 / (per_shot + between / shots)


def rare_band(reference: Dict[str, float], shots: int) -> Tuple[float, float]:
    """Weighted-rate band for ``shots`` new shots at the reference rate.

    A run's weighted failure sum is a few failures, each carrying an
    importance weight, so it is a skewed compound-Poisson sum: at d=7 a
    20 s run expects about one failure, and two or three heavy ones are
    not rare.  It is modelled as ``w * Poisson(shots * rate / w)``, where
    ``w = shot variance / rate`` gives the sum the reference's per-shot
    variance (its standard error times root shots, squared), and the
    band spans that Poisson's quantiles with the rate at both ends of the
    reference's own normal interval.
    """
    tail = (1.0 - CHECK_LEVEL) / 2.0
    z = stats.norm.ppf(1.0 - tail)
    rate, error = reference["rate"], reference["std_error"]
    weight = error * error * reference["shots"] / rate
    low = max(rate - z * error, 0.0) * shots / weight
    high = (rate + z * error) * shots / weight
    return (weight * stats.poisson.ppf(tail, low) / shots,
            weight * stats.poisson.ppf(1.0 - tail, high) / shots)


def _rare_check(state: RareState, units: List[UnitResult]) -> Checks:
    """Each point's weighted rate inside its :func:`rare_band`."""
    checks: Checks = {}
    for (d, p), total in sorted(state.totals.items()):
        low, high = rare_band(REFERENCE["rare_sweep"][f"d{d}_p{p:g}"], total.shots)
        problem = None
        if not low <= total.weighted_rate <= high:
            problem = (f"weighted rate {total.weighted_rate:.3g} over "
                       f"{total.shots} shots is outside the reference "
                       f"band [{low:.3g}, {high:.3g}]")
        checks[f"rare_sweep.d{d}_p{p:g}.rate"] = problem
    return checks


RARE_SWEEP = Workload(
    "rare_sweep", RARE_ROUNDS, _rare_setup, _rare_unit, _rare_check,
    throughput=_rare_throughput,
)


# -- biased noise, paired decoders ---------------------------------------------

BIASES = (1.0, 4.0, 16.0)
BIASED_SHOTS = 2048
BIASED_SHARD_SHOTS = 1024  # paired_failure_counts' default shard size


@dataclass
class BiasedPoint:
    circuit: Any
    dem: Any
    weighted: Any
    uniform: Any


@dataclass
class BiasedState:
    points: List[BiasedPoint]
    pool_start_s: float = 0.0

    def close(self) -> None:
        pass


def _biased_setup(workers: int) -> BiasedState:
    points = []
    for bias in BIASES:
        circuit = _memory.memory_circuit(
            5, 5, 4e-3, basis="X", noise=BiasedPauli(4e-3, bias=bias)
        )
        dem = _dem.extract_dem(circuit)
        _periodic.compile_program(circuit)
        points.append(BiasedPoint(
            circuit, dem,
            _engine.make_decoder("mwpm", dem),
            _engine.make_decoder("mwpm_uniform", dem),
        ))
    return BiasedState(points)


def _biased_unit(state: BiasedState, seed: int, index: int) -> UnitResult:
    seeds = unit_seed(seed, index).spawn(len(state.points))
    outcome = []
    for point, seq in zip(state.points, seeds):
        counts = _analysis.paired_failure_counts(
            point.circuit,
            {"weighted": point.weighted, "uniform": point.uniform},
            BIASED_SHOTS,
            seed=seq,
            dem=point.dem,
            shard_shots=BIASED_SHARD_SHOTS,
        )
        outcome.append((counts["weighted"], counts["uniform"]))
    shards = len(state.points) * -(-BIASED_SHOTS // BIASED_SHARD_SHOTS)
    return UnitResult(BIASED_SHOTS * len(state.points), shards, tuple(outcome))


def _biased_check(state: BiasedState, units: List[UnitResult]) -> Checks:
    checks: Checks = {}
    for i, bias in enumerate(BIASES):
        weighted = sum(u.outcome[i][0] for u in units)
        uniform = sum(u.outcome[i][1] for u in units)
        problem = None
        if weighted > uniform:
            problem = (f"DEM-weighted MWPM failed {weighted} times, more "
                       f"than uniform MWPM ({uniform})")
        checks[f"biased_paired.bias{bias:g}.weighted_le_uniform"] = problem
    return checks


BIASED_PAIRED = Workload(
    "biased_paired", 5, _biased_setup, _biased_unit, _biased_check,
    parallel=False,
)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (BRUTE_D11_UF, BRUTE_D5_MWPM, RARE_SWEEP, BIASED_PAIRED)
}
