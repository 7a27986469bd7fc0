"""High-throughput Monte-Carlo decoding engine.

All of the paper's Monte-Carlo numbers (the Fig. 6(a) model fit, the
Fig. 13(a) decoder trade-off) flow through "sample a noisy circuit, decode
every shot, count logical failures".  The engine makes that loop
throughput-oriented:

* **Decoder registry** -- decoders are selected by name (``"mwpm"``,
  ``"union_find"``, ``"sequential"``) through :func:`make_decoder`, so
  experiments and sweeps are parameterized by a string instead of being
  hard-wired to one class.
* **Defect-group memo** -- every decoder inherits
  :class:`~repro.decoder.base.BatchDecoder`, which decodes a shard's
  defect lists as one batch.  Whole syndromes
  rarely recur at the paper's distances, but their small defect groups
  do: MWPM and union-find split every row into groups and look up or
  solve each distinct group once (:func:`~repro.decoder.base.split_groups`,
  :meth:`~repro.decoder.base.SortedMemo.solve`).
* **One shard body over one shot source** -- each worker holds a
  ``draw(shots, rng) -> DefectBatch`` source: the circuit's compiled
  sampler (:meth:`~repro.sim.frame.FrameSimulator.sample_defects`,
  periodic or linear as :func:`~repro.sim.periodic.compile_program`
  picks) for brute-force engines, the importance sampler's
  ``sample_defects`` for weighted ones.  A
  :class:`~repro.sim.compiled.DefectBatch` is the shard's sorted
  ``(shot, detector)`` defect lists plus its observable table (and log
  weights).  Every shard draws from it (span ``engine.sample``), hands
  the lists straight to ``decode_defects`` (span ``engine.decode``),
  compares the predictions with the observable table, and ships its
  sufficient statistics home; no dense shot matrix is built on the way.
  :meth:`DecodingEngine.collect` draws from the same source without
  decoding and ships the shards' defect lists home as one batch.
* **Sharded parallel sampling** -- shots are split into fixed-size shards,
  each with an independent child of one root
  :class:`numpy.random.SeedSequence`.  The shard structure depends only on
  the seed and shard size, never on the worker count, so results are
  bit-identical for 1 or N ``multiprocessing`` workers.  One persistent
  pool serves all ``run``/``run_until`` calls of an engine (see
  :meth:`DecodingEngine.close`).
* **Streaming early-stop** -- :meth:`DecodingEngine.run_until` keeps
  drawing shard batches until a target failure count or a shot cap is
  reached, and :meth:`DecodingEngine.run_until_rel_error` until the
  (weighted) estimate's relative standard error is tight enough, so
  sweeps spend shots where failures are rare instead of using one fixed
  count everywhere.  Both stopping rules are evaluated on the
  shard-ordered prefix, keeping them deterministic under parallelism.
* **Weighted estimation** -- an engine built with an importance
  ``sampler`` (see :mod:`repro.estimator.rare`) draws shots from a
  reweighted proposal model and ships per-shot likelihood-ratio weight
  sums home with each shard, exactly like the shard metric deltas; the
  :class:`EngineResult` then estimates the failure probability as a
  weighted mean under the *original* model (``weighted_rate``), with a
  variance and effective sample size, still bit-identical for any worker
  count.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import time
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.decoder.base import Decoder
from repro.decoder.graph import DecodingGraph
from repro.decoder.mwpm import MWPMDecoder
from repro.decoder.sequential import SequentialCNOTDecoder
from repro.decoder.union_find import UnionFindDecoder
from repro.noise.dem import DetectorErrorModel
from repro.obs import metrics as _metrics
from repro.obs.logs import get_logger
from repro.obs.spans import span
from repro.sim.circuit import Circuit
from repro.sim.compiled import DefectBatch
from repro.sim.frame import FrameSimulator

SeedLike = Union[int, np.random.SeedSequence]

_LOG = get_logger("repro.decoder.engine")

# Shot/failure/shard counters are deterministic functions of (seed,
# shard_shots) and merge identically for any worker count; the phase-time
# counters and throughput gauge are wall-clock-valued and exist for
# diagnosis, not invariance.
_ENGINE_SHOTS = _metrics.counter(
    "repro_engine_shots_total", "Shots sampled and decoded by the engine."
)
_ENGINE_FAILURES = _metrics.counter(
    "repro_engine_failures_total", "Logical failures counted by the engine."
)
_ENGINE_SHARDS = _metrics.counter(
    "repro_engine_shards_total", "Shards executed by the engine."
)
_ENGINE_SAMPLE_SECONDS = _metrics.counter(
    "repro_engine_sample_seconds_total",
    "Wall-clock seconds spent sampling shards.",
)
_ENGINE_DECODE_SECONDS = _metrics.counter(
    "repro_engine_decode_seconds_total",
    "Wall-clock seconds spent decoding shards.",
)
_ENGINE_THROUGHPUT = _metrics.gauge(
    "repro_engine_last_shots_per_second",
    "Throughput of the most recent DecodingEngine.run call.",
)
_ENGINE_ESS_RATIO = _metrics.gauge(
    "repro_engine_last_ess_ratio",
    "Effective-sample-size fraction (ESS/shots) of the most recent "
    "importance-sampled engine run.",
)
_ENGINE_WEIGHT_VARIANCE = _metrics.gauge(
    "repro_engine_last_weight_variance",
    "Importance-weight variance of the most recent weighted engine run.",
)

# -- decoder registry ----------------------------------------------------------

DecoderFactory = Callable[..., Decoder]
_REGISTRY: Dict[str, DecoderFactory] = {}


def register_decoder(name: str, factory: DecoderFactory) -> None:
    """Register a decoder factory under ``name``.

    The factory is called as ``factory(dem, detector_meta=..., basis=...)``
    and must return an object satisfying the
    :class:`~repro.decoder.base.Decoder` protocol.
    """
    if name in _REGISTRY:
        raise ValueError(f"decoder {name!r} is already registered")
    _REGISTRY[name] = factory


def available_decoders() -> Tuple[str, ...]:
    """Registered decoder names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_decoder(
    name: str,
    dem: DetectorErrorModel,
    *,
    detector_meta: Optional[Sequence[Tuple[int, str, int, int]]] = None,
    basis: str = "Z",
) -> Decoder:
    """Build a registered decoder from a detector error model.

    Args:
        name: registry key; see :func:`available_decoders`.
        dem: detector error model of the circuit to decode.
        detector_meta: per-detector (patch, basis, check, round) metadata;
            required by the ``"sequential"`` decoder, ignored otherwise.
        basis: CSS sector for the ``"sequential"`` decoder.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown decoder {name!r}; available: {available_decoders()}"
        )
    return factory(dem, detector_meta=detector_meta, basis=basis)


def _make_mwpm(dem, *, detector_meta=None, basis="Z"):
    return MWPMDecoder(DecodingGraph.from_dem(dem))


def _make_mwpm_uniform(dem, *, detector_meta=None, basis="Z"):
    # Verification baseline: DEM topology, uniform edge weights (the
    # hand-built-graph convention).  The DEM-weighted "mwpm" must never
    # decode worse than this.
    return MWPMDecoder(DecodingGraph.from_dem_uniform(dem))


def _make_union_find(dem, *, detector_meta=None, basis="Z"):
    return UnionFindDecoder(DecodingGraph.from_dem(dem))


def _make_sequential(dem, *, detector_meta=None, basis="Z"):
    if detector_meta is None:
        raise ValueError("the 'sequential' decoder requires detector_meta")
    return SequentialCNOTDecoder(dem, detector_meta, basis=basis)


register_decoder("mwpm", _make_mwpm)
register_decoder("mwpm_uniform", _make_mwpm_uniform)
register_decoder("union_find", _make_union_find)
register_decoder("sequential", _make_sequential)


# -- engine --------------------------------------------------------------------


@dataclass(frozen=True)
class EngineResult:
    """Aggregate outcome of one engine run.

    For uniform (brute-force) runs the weighted fields are derived from
    the raw counts in ``__post_init__`` -- every shot has weight 1, so
    ``weighted_rate == rate`` and ``ess == shots``.  Importance-sampled
    runs (an engine built with a ``sampler``) fill them with the
    likelihood-ratio sums shipped home per shard:

    * ``weighted_failures`` -- sum over failing shots of the shot weight
      ``w_i`` (the unbiased failure-count mass under the original model);
    * ``weighted_failures_sq`` -- sum over failing shots of ``w_i**2``
      (second moment, feeding :attr:`variance`);
    * ``weight_sum`` / ``weight_sq_sum`` -- sums of ``w_i`` and
      ``w_i**2`` over *all* shots (feeding :attr:`ess`).

    ``shots_beyond_stop`` counts shots an early-stop run sampled beyond
    the counted prefix (see :meth:`DecodingEngine.run_until`); it is 0
    for fixed-shot runs and, unlike every other field, depends on the
    worker count (the in-flight wave is ``workers`` shards wide).
    """

    shots: int
    failures: int
    shards: int
    weighted_failures: float = None  # type: ignore[assignment]
    weighted_failures_sq: float = None  # type: ignore[assignment]
    weight_sum: float = None  # type: ignore[assignment]
    weight_sq_sum: float = None  # type: ignore[assignment]
    shots_beyond_stop: int = 0

    def __post_init__(self) -> None:
        # Uniform-weight defaults: w_i = 1 for every shot makes the
        # weighted fields exact functions of the integer counts.
        if self.weighted_failures is None:
            object.__setattr__(self, "weighted_failures", float(self.failures))
        if self.weighted_failures_sq is None:
            object.__setattr__(
                self, "weighted_failures_sq", float(self.failures)
            )
        if self.weight_sum is None:
            object.__setattr__(self, "weight_sum", float(self.shots))
        if self.weight_sq_sum is None:
            object.__setattr__(self, "weight_sq_sum", float(self.shots))

    @property
    def rate(self) -> float:
        """Raw failure fraction of the *sampled* shots (proposal model)."""
        return self.failures / self.shots if self.shots else 0.0

    @property
    def weighted_rate(self) -> float:
        """Unbiased failure-probability estimate under the original model.

        The mean of ``w_i * fail_i``; equals :attr:`rate` for uniform
        runs.
        """
        return self.weighted_failures / self.shots if self.shots else 0.0

    @property
    def variance(self) -> float:
        """Sample variance of :attr:`weighted_rate` (the estimator itself,
        not the per-shot population): ``s^2 / n`` with the usual unbiased
        ``s^2`` over the per-shot values ``w_i * fail_i``."""
        n = self.shots
        if n == 0:
            return 0.0
        if n == 1:
            return math.inf
        mean = self.weighted_failures / n
        centered = self.weighted_failures_sq - n * mean * mean
        return max(centered, 0.0) / ((n - 1) * n)

    @property
    def std_error(self) -> float:
        """Standard error of :attr:`weighted_rate`."""
        return math.sqrt(self.variance)

    @property
    def rel_error(self) -> float:
        """``std_error / weighted_rate`` (``inf`` until a failure is seen)."""
        rate = self.weighted_rate
        return self.std_error / rate if rate > 0 else math.inf

    @property
    def ess(self) -> float:
        """Kish effective sample size ``(sum w)^2 / sum w^2``.

        Equals ``shots`` for uniform weights; a small ``ess / shots``
        fraction means a few heavy weights dominate the estimate and the
        proposal inflation should be reduced.
        """
        return (
            self.weight_sum * self.weight_sum / self.weight_sq_sum
            if self.weight_sq_sum > 0
            else 0.0
        )

    def failure_rate_ci(self, level: float = 0.95) -> Tuple[float, float]:
        """Wilson score confidence interval for the failure probability.

        Uniform runs get the classical binomial interval on
        ``(failures, shots)``.  Weighted runs use the effective binomial
        ``(weighted_rate, ess)``: the interval a uniform run of ``ess``
        shots at the same estimate would have, which is the standard
        weighted-sample approximation.  Unlike the normal interval, the
        Wilson interval stays informative at zero observed failures
        (upper bound ~ ``z^2 / n``), which is what the adaptive budget
        allocator relies on to stop feeding converged zero-failure
        points.
        """
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        n = self.ess
        if n <= 0:
            return (0.0, 1.0)
        p = min(max(self.weighted_rate, 0.0), 1.0)
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        denom = 1.0 + z * z / n
        center = (p + z * z / (2.0 * n)) / denom
        half = (z / denom) * math.sqrt(
            p * (1.0 - p) / n + z * z / (4.0 * n * n)
        )
        return (max(center - half, 0.0), min(center + half, 1.0))

    def __add__(self, other: "EngineResult") -> "EngineResult":
        """Merge two runs' sufficient statistics (order-independent)."""
        if not isinstance(other, EngineResult):
            return NotImplemented
        return EngineResult(
            shots=self.shots + other.shots,
            failures=self.failures + other.failures,
            shards=self.shards + other.shards,
            weighted_failures=self.weighted_failures + other.weighted_failures,
            weighted_failures_sq=(
                self.weighted_failures_sq + other.weighted_failures_sq
            ),
            weight_sum=self.weight_sum + other.weight_sum,
            weight_sq_sum=self.weight_sq_sum + other.weight_sq_sum,
            shots_beyond_stop=self.shots_beyond_stop + other.shots_beyond_stop,
        )


# Per-process state of a pool worker, installed once by the pool
# initializer so shard tasks only ship (shots, seed) pairs instead of the
# circuit and decoder.  Inline runs fill and pass their own dict instead,
# so inline engines on concurrent threads never read each other's decoder.
_WORKER: dict = {}


def _worker_init(
    circuit: Circuit,
    decoder: Decoder,
    observable: Optional[int],
    sampler=None,
    sim: Optional[FrameSimulator] = None,
    state: dict = _WORKER,
) -> dict:
    """Install the shot source, decoder, and failure criterion in ``state``.

    The shot source ``draw(shots, rng)`` returns a
    :class:`~repro.sim.compiled.DefectBatch`; its ``log_weights`` is
    ``None`` for brute-force sampling (every shot has unit weight).  An
    importance-sampled engine never simulates the circuit, so its
    workers skip building a simulator.
    """
    if sampler is not None:
        draw = sampler.sample_defects
    else:
        draw = (sim if sim is not None else FrameSimulator(circuit)).sample_defects
    state["draw"] = draw
    state["decoder"] = decoder
    state["observable"] = observable
    return state


def _draw_shard(
    task: Tuple[int, np.random.SeedSequence], state: dict = _WORKER
) -> DefectBatch:
    """Draw one shard from the state's shot source, timing the sampling."""
    shots, seed_seq = task
    start = time.perf_counter()
    with span("engine.sample"):
        out = state["draw"](shots, np.random.default_rng(seed_seq))
    if _metrics.enabled():
        _ENGINE_SAMPLE_SECONDS.inc(time.perf_counter() - start)
        _ENGINE_SHARDS.inc()
    return out


def _run_shard(
    task: Tuple[int, np.random.SeedSequence], state: dict = _WORKER
) -> EngineResult:
    """Sample + decode one shard; returns its one-shard :class:`EngineResult`.

    Importance-sampled shards ship likelihood-ratio weight *sums*,
    accumulated in shard order -- the same protocol that keeps the
    metric deltas worker-count invariant.
    """
    shots = task[0]
    with span("engine.shard", shots=shots):
        batch = _draw_shard(task, state)
        start = time.perf_counter()
        with span("engine.decode"):
            predictions = state["decoder"].decode_defects(
                batch.shot, batch.detector, shots
            )
        if _metrics.enabled():
            _ENGINE_DECODE_SECONDS.inc(time.perf_counter() - start)
        observables = batch.observables
        observable = state["observable"]
        if observable is None:
            wrong = (predictions ^ observables).any(axis=1)
        else:
            wrong = (
                predictions[:, observable] ^ observables[:, observable]
            ).astype(bool)
        failures = int(wrong.sum())
        if batch.log_weights is None:
            return EngineResult(shots=shots, failures=failures, shards=1)
        weights = np.exp(batch.log_weights)
        failing = weights[wrong]
        return EngineResult(
            shots=shots,
            failures=failures,
            shards=1,
            weighted_failures=float(failing.sum()),
            weighted_failures_sq=float(np.square(failing).sum()),
            weight_sum=float(weights.sum()),
            weight_sq_sum=float(np.square(weights).sum()),
        )


class DecodingEngine:
    """Batched Monte-Carlo decoding of one noisy circuit.

    Args:
        circuit: the noisy circuit to sample (its DEM is extracted once).
        decoder: registry name (see :func:`available_decoders`) or an
            already-built :class:`~repro.decoder.base.Decoder` instance.
        detector_meta: passed through to :func:`make_decoder` for the
            ``"sequential"`` decoder.
        basis: CSS sector for the ``"sequential"`` decoder.
        observable: observable column a failure is counted on; ``None``
            counts a shot as failed when *any* observable is mispredicted
            (the transversal-CNOT criterion).
        shard_shots: shots per shard.  The shard layout is a function of
            the seed and this value only, so results do not depend on
            ``workers``.
        workers: number of ``multiprocessing`` workers; ``1`` runs inline.
        sampler: optional importance sampler (an object with
            ``sample_defects(shots, rng) ->``
            :class:`~repro.sim.compiled.DefectBatch` carrying
            ``log_weights``, e.g.
            :class:`repro.estimator.rare.ImportanceSampler`).  When given,
            shards draw from the sampler's reweighted proposal instead of
            simulating the circuit, and results carry likelihood-ratio
            weight sums so ``EngineResult.weighted_rate`` estimates the
            failure probability under the *original* model.  The decoder
            still decodes against the original DEM.  ``collect`` is
            unavailable in this mode.

    Every shard -- of ``run``, the early-stop runs, and ``collect`` --
    draws from one shot source: the compiled circuit sampler
    (:meth:`~repro.sim.frame.FrameSimulator.sample_defects`) or, with a
    ``sampler``, its ``sample_defects``.  Decoding always goes through
    :meth:`~repro.decoder.base.BatchDecoder.decode_defects`.

    The engine keeps one persistent worker pool alive across ``run`` /
    ``run_until`` calls (spawning a pool ships the circuit and decoder to
    every worker; respawning per batch wasted that setup).  Call
    :meth:`close` -- or use the engine as a context manager -- to release
    the pool; it is also released on garbage collection.
    """

    def __init__(
        self,
        circuit: Circuit,
        decoder: Union[str, Decoder] = "mwpm",
        *,
        detector_meta: Optional[Sequence[Tuple[int, str, int, int]]] = None,
        basis: str = "Z",
        observable: Optional[int] = 0,
        shard_shots: int = 1024,
        workers: int = 1,
        sampler=None,
    ) -> None:
        if shard_shots < 1:
            raise ValueError("shard_shots must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.circuit = circuit
        self.observable = observable
        self.shard_shots = shard_shots
        self.workers = workers
        self.sampler = sampler
        self._pool = None
        # One simulator for serial execution and DEM extraction: its
        # compiled program is built once and reused across run() calls.
        self._sim = FrameSimulator(circuit)
        if isinstance(decoder, str):
            # DEM extraction is the dominant setup cost; skip it entirely
            # when the caller hands over an already-built decoder.
            with span("engine.extract_dem"):
                self.dem: Optional[DetectorErrorModel] = (
                    self._sim.detector_error_model()
                )
            # A failed periodic certification degrades DEM extraction to
            # the linear path; surface the reason the model carries (also
            # counted in repro_periodic_fallback_total{reason=...}).
            self.periodic_fallback_reason = self.dem.periodic_fallback
            with span("engine.build_decoder", decoder=decoder):
                self.decoder = make_decoder(
                    decoder, self.dem, detector_meta=detector_meta, basis=basis
                )
        else:
            self.dem = None
            self.decoder = decoder
            self.periodic_fallback_reason = None
        if sampler is None:
            # Compile now, from the fault table extraction just memoized:
            # forked pool workers then inherit the program.
            self._sim.compiled

    def close(self) -> None:
        """Release the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "DecodingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # -- public API ---------------------------------------------------------

    def run(self, shots: int, seed: SeedLike = 0) -> EngineResult:
        """Decode a fixed number of shots, sharded."""
        if shots < 0:
            raise ValueError("shots must be >= 0")
        if shots == 0:
            return EngineResult(shots=0, failures=0, shards=0)
        root = _as_seed_sequence(seed)
        sizes = self._shard_sizes(shots)
        tasks = list(zip(sizes, root.spawn(len(sizes))))
        with span("engine.run", shots=shots, workers=self.workers):
            start = time.perf_counter()
            results = self._execute(tasks)
            elapsed = time.perf_counter() - start
        # Left-to-right in shard (spawn) order: the float sums come out
        # bit-identical for any worker count.
        result = sum(results, EngineResult(shots=0, failures=0, shards=0))
        _ENGINE_SHOTS.inc(result.shots)
        _ENGINE_FAILURES.inc(result.failures)
        if elapsed > 0:
            _ENGINE_THROUGHPUT.set(result.shots / elapsed)
        self._observe_weighted(result)
        return result

    def run_until(
        self,
        target_failures: int,
        max_shots: int,
        seed: SeedLike = 0,
    ) -> EngineResult:
        """Stream shard batches until enough failures (or the shot cap).

        Shards are consumed in spawn order and the stop condition is
        checked on the ordered prefix, so the result is identical for any
        worker count: the run covers every shard up to and including the
        first one at which the cumulative failure count reaches
        ``target_failures`` (or cumulative shots reach ``max_shots``).

        Stop-boundary contract: each wave dispatches up to ``workers``
        shards at once, and every dispatched shard runs to completion
        even when an earlier shard of the same wave already satisfies the
        stop condition -- the engine *samples* beyond the stop, but the
        counted result never includes those shards.  The overshoot is
        reported as ``EngineResult.shots_beyond_stop`` so budget
        accounting (wall-clock, draws from the entropy stream) is exact.
        Unlike the counted fields, ``shots_beyond_stop`` depends on the
        worker count, because the wave width is ``workers`` shards.
        """
        if target_failures < 1:
            raise ValueError("target_failures must be >= 1")
        if max_shots < 1:
            raise ValueError("max_shots must be >= 1")
        with span(
            "engine.run_until",
            target_failures=target_failures,
            max_shots=max_shots,
        ):
            result = self._run_streaming(
                lambda res: res.failures >= target_failures, max_shots, seed
            )
        low, high = result.failure_rate_ci()
        _LOG.debug(
            "run_until(%d): %d/%d failures, rate %.3g "
            "(95%% CI [%.3g, %.3g]), %d shots beyond stop",
            target_failures, result.failures, result.shots, result.rate,
            low, high, result.shots_beyond_stop,
        )
        return result

    def run_until_rel_error(
        self,
        target_rel_err: float,
        max_shots: int,
        seed: SeedLike = 0,
        *,
        min_failures: int = 5,
    ) -> EngineResult:
        """Stream shard batches until the estimate is tight enough.

        Stops at the first shard (in spawn order, so worker-count
        invariant) where at least ``min_failures`` failures have been
        seen *and* ``EngineResult.rel_error`` -- the standard error of
        the weighted failure estimate divided by the estimate -- is at
        most ``target_rel_err``; ``max_shots`` caps the run either way.
        For a uniform engine this is a binomial precision target; for an
        importance-sampled engine it is the natural stopping rule,
        because the weighted variance (not the raw failure count) is
        what a precision claim rests on.  The stop-boundary contract of
        :meth:`run_until` applies unchanged, including
        ``shots_beyond_stop``.
        """
        if not target_rel_err > 0:
            raise ValueError("target_rel_err must be > 0")
        if max_shots < 1:
            raise ValueError("max_shots must be >= 1")
        if min_failures < 1:
            raise ValueError("min_failures must be >= 1")
        with span(
            "engine.run_until_rel_error",
            target_rel_err=target_rel_err,
            max_shots=max_shots,
        ):
            result = self._run_streaming(
                lambda res: (
                    res.failures >= min_failures
                    and res.rel_error <= target_rel_err
                ),
                max_shots,
                seed,
            )
        _LOG.debug(
            "run_until_rel_error(%.3g): rate %.3g +- %.3g after %d shots "
            "(ESS %.0f, %d beyond stop)",
            target_rel_err, result.weighted_rate, result.std_error,
            result.shots, result.ess, result.shots_beyond_stop,
        )
        return result

    def _run_streaming(
        self,
        should_stop: Callable[[EngineResult], bool],
        max_shots: int,
        seed: SeedLike,
    ) -> EngineResult:
        """Wave loop shared by the early-stop runs (prefix-deterministic)."""
        root = _as_seed_sequence(seed)
        acc = EngineResult(shots=0, failures=0, shards=0)
        beyond = 0
        stopped = False
        while not stopped and acc.shots < max_shots:
            sizes = self._next_wave_sizes(max_shots - acc.shots)
            tasks = list(zip(sizes, root.spawn(len(sizes))))
            results = self._execute(tasks)
            for index, shard in enumerate(results):
                acc = acc + shard
                if should_stop(acc) or acc.shots >= max_shots:
                    beyond = sum(sizes[index + 1:])
                    stopped = True
                    break
        _ENGINE_SHOTS.inc(acc.shots)
        _ENGINE_FAILURES.inc(acc.failures)
        result = dataclasses.replace(acc, shots_beyond_stop=beyond)
        self._observe_weighted(result)
        return result

    def _observe_weighted(self, result: EngineResult) -> None:
        if self.sampler is None or not result.shots or not _metrics.enabled():
            return
        _ENGINE_ESS_RATIO.set(result.ess / result.shots)
        mean_weight = result.weight_sum / result.shots
        _ENGINE_WEIGHT_VARIANCE.set(
            max(result.weight_sq_sum / result.shots - mean_weight ** 2, 0.0)
        )

    def collect(self, shots: int, seed: SeedLike = 0) -> DefectBatch:
        """Sample shots without decoding them.

        Shards are drawn exactly as in :meth:`run` (same seed spawning,
        same layout, same shot source); workers ship each shard's
        :class:`~repro.sim.compiled.DefectBatch` home and the parent
        joins them in shard order, so the batch is bit-identical for any
        worker count.

        Returns:
            one :class:`~repro.sim.compiled.DefectBatch` of ``shots`` shots:
            sorted ``(shot, detector)`` defect lists, each shard's shot ids
            offset by the shots of the shards before it (the lists
            ``decode_defects`` consumes), and the ``(shots,
            num_observables)`` observable table.
        """
        if self.sampler is not None:
            raise ValueError(
                "collect() is unavailable on an importance-sampled engine: "
                "the sampler draws from the reweighted proposal model, not "
                "the circuit"
            )
        if shots < 0:
            raise ValueError("shots must be >= 0")
        root = _as_seed_sequence(seed)
        # Zero shots draw one empty shard: the source gives its shapes.
        sizes = self._shard_sizes(shots) or [0]
        parts = self._execute(
            list(zip(sizes, root.spawn(len(sizes)))), fn=_draw_shard
        )
        offsets = np.cumsum([0] + sizes[:-1])
        return DefectBatch(
            np.concatenate([p.shot + o for p, o in zip(parts, offsets)]),
            np.concatenate([p.detector for p in parts]),
            np.concatenate([p.observables for p in parts]),
        )

    # -- internals ----------------------------------------------------------

    def _shard_sizes(self, shots: int) -> List[int]:
        full, rest = divmod(shots, self.shard_shots)
        return [self.shard_shots] * full + ([rest] if rest else [])

    def _next_wave_sizes(self, remaining: int) -> List[int]:
        sizes: List[int] = []
        for _ in range(self.workers):
            if remaining <= 0:
                break
            size = min(self.shard_shots, remaining)
            sizes.append(size)
            remaining -= size
        return sizes

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = multiprocessing.Pool(
                self.workers,
                initializer=_worker_init,
                initargs=(
                    self.circuit, self.decoder, self.observable, self.sampler,
                ),
            )
        return self._pool

    def _execute(self, tasks, fn=_run_shard) -> List:
        if self.workers <= 1:
            state = _worker_init(
                self.circuit, self.decoder, self.observable, self.sampler,
                sim=self._sim, state={},
            )
            return [fn(task, state) for task in tasks]
        with span("engine.merge_deltas", tasks=len(tasks)):
            return _metrics.metered_map(self._ensure_pool(), fn, tasks)


def _as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """A fresh root for one call: spawning from a copy leaves the caller's
    sequence untouched, so the same seed always draws the same shots."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
    return np.random.SeedSequence(seed)
