"""Declarative grid-sweep engine for the estimation pipeline.

Every analytic figure/table of the paper is a sweep of a pure point
function over a small named grid.  Instead of each driver hand-rolling a
serial loop, this module provides:

* **Named axes** -- :func:`grid` takes ``axis=values`` keywords and builds
  the cartesian product; :func:`zipped` aligns axes element-wise (for
  pre-paired parameter lists).  Point order is deterministic: cartesian
  products iterate the *last* axis fastest, like nested for-loops.
* **Worker-invariant sharding** -- points are split into fixed-size shards
  and mapped over a ``multiprocessing`` pool.  The shard layout depends
  only on ``shard_size`` (PR 1's decoder-engine idiom), and shard results
  are concatenated in shard order, so the output is identical for 1 or N
  workers -- the point functions are deterministic, and each worker
  process simply warms its own sub-model cache.
* **Measured serial fallback** -- spawning a pool costs real wall time
  (process forks, initializer shipping); on grids whose total work is
  smaller than that overhead, ``jobs > 1`` used to *lose* to serial on
  every small scenario.  ``sweep`` now probes the first two points
  inline, extrapolates the remaining serial cost from the cheaper probe
  (the first point also pays cold sub-model caches), and only spawns the
  pool when the measured per-process overhead
  (:func:`measured_pool_overhead`, calibrated once per process per
  worker count) is projected to pay for itself.  The fallback never
  changes results -- only where they are computed.
* **Pruning hooks** -- :func:`minimize` runs branch-and-bound over the
  grid: a cheap, *sound* ``lower_bound(point)`` (never exceeding the true
  objective) lets dominated grid points be skipped without changing the
  argmin, which is how the Table II optimizer avoids evaluating most of
  its window/runway grid.

Point functions receive one ``dict`` mapping axis names to values and
return either a ``dict`` of result fields (merged into the point record)
or any other value (stored under ``"value"``).  For ``jobs > 1`` the
function must be picklable: a module-level function, or a
``functools.partial`` of one over picklable fixed arguments.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs.spans import span

PointFn = Callable[[Dict[str, Any]], Any]
Record = Dict[str, Any]

DEFAULT_SHARD_SIZE = 16

# Per-point timing lands in one histogram regardless of where the point
# ran (inline probe, serial fallback, or pool worker shipping deltas), so
# the sweep cost distribution is comparable across execution modes; the
# mode counter records which path the serial fallback took, and the
# evaluated/pruned counters quantify branch-and-bound effectiveness.
_POINT_SECONDS = _metrics.histogram(
    "repro_sweep_point_seconds", "Per-point evaluation latency in sweeps."
)
_POINTS = _metrics.counter(
    "repro_sweep_points_total", "Sweep grid points evaluated."
)
_SWEEP_RUNS = _metrics.counter(
    "repro_sweep_runs_total",
    "Sweep invocations by execution mode.",
    ("mode",),
)
_MINIMIZE_EVALUATED = _metrics.counter(
    "repro_sweep_evaluated_total",
    "Grid points evaluated by branch-and-bound minimize().",
)
_MINIMIZE_PRUNED = _metrics.counter(
    "repro_sweep_pruned_total",
    "Grid points pruned by branch-and-bound minimize().",
)
_ADAPTIVE_WAVES = _metrics.counter(
    "repro_sweep_adaptive_waves_total",
    "Shot waves dispatched by adaptive_shots().",
)
_ADAPTIVE_SHOTS = _metrics.counter(
    "repro_sweep_adaptive_shots_total",
    "Shots allocated by adaptive_shots().",
)
_ADAPTIVE_MAX_CI = _metrics.gauge(
    "repro_sweep_adaptive_last_max_ci_width",
    "Widest per-point failure-rate CI at the end of the most recent "
    "adaptive_shots() run.",
)


@dataclass(frozen=True)
class Axis:
    """One named sweep dimension."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("axis name must be non-empty")
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")


@dataclass(frozen=True)
class GridSpec:
    """A sweep grid: named axes combined as a cartesian or zipped product."""

    axes: Tuple[Axis, ...]
    mode: str = "product"

    def __post_init__(self) -> None:
        if self.mode not in ("product", "zip"):
            raise ValueError(f"unknown grid mode {self.mode!r}")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        if self.mode == "zip":
            lengths = {len(axis.values) for axis in self.axes}
            if len(lengths) > 1:
                raise ValueError(
                    "zipped axes must have equal lengths, got "
                    f"{[len(a.values) for a in self.axes]}"
                )

    def __len__(self) -> int:
        if not self.axes:
            return 0
        if self.mode == "zip":
            return len(self.axes[0].values)
        return math.prod(len(axis.values) for axis in self.axes)

    def points(self) -> List[Dict[str, Any]]:
        """Enumerate grid points in deterministic order."""
        if not self.axes:
            return []
        names = [axis.name for axis in self.axes]
        if self.mode == "zip":
            combos = zip(*(axis.values for axis in self.axes))
        else:
            combos = itertools.product(*(axis.values for axis in self.axes))
        return [dict(zip(names, combo)) for combo in combos]


def grid(**axes: Sequence[Any]) -> GridSpec:
    """Cartesian-product grid from ``axis_name=values`` keywords."""
    return GridSpec(tuple(Axis(n, tuple(v)) for n, v in axes.items()))


def zipped(**axes: Sequence[Any]) -> GridSpec:
    """Element-wise aligned grid (all axes advance together)."""
    return GridSpec(
        tuple(Axis(n, tuple(v)) for n, v in axes.items()), mode="zip"
    )


def _as_record(point: Dict[str, Any], result: Any) -> Record:
    if isinstance(result, dict):
        return {**point, **result}
    return {**point, "value": result}


# Per-process state of a pool worker, installed once by the pool
# initializer so shard tasks only ship the point dicts instead of the
# function at every call.  Inline runs pass ``fn`` to :func:`_run_shard`
# instead, so sweeps on concurrent threads never swap point functions.
_WORKER: dict = {}


def _worker_init(fn: PointFn) -> None:
    _WORKER["fn"] = fn


def _run_shard(
    points: List[Dict[str, Any]], fn: Optional[PointFn] = None
) -> List[Record]:
    fn = _WORKER["fn"] if fn is None else fn
    if not _metrics.enabled():
        return [_as_record(point, fn(point)) for point in points]
    records: List[Record] = []
    for point in points:
        start = time.perf_counter()
        records.append(_as_record(point, fn(point)))
        _POINT_SECONDS.observe(time.perf_counter() - start)
        _POINTS.inc()
    return records


def _shards(points: List[Dict[str, Any]], shard_size: int) -> List[List[Dict[str, Any]]]:
    return [
        points[i : i + shard_size] for i in range(0, len(points), shard_size)
    ]


# Measured pool-spawn overhead per worker count, calibrated at most once
# per process (the calibration itself costs one pool spawn, amortized over
# every later sweep in the process).  Tests may pre-seed this to force a
# fallback decision either way.
_CALIBRATION: Dict[int, float] = {}

# Points probed inline before deciding serial vs pool.  Two probes let the
# extrapolation use the cheaper one: the first probe also pays the cold
# sub-model caches, which a parallel run would pay per worker anyway.
_PROBE_POINTS = 2


def _calibration_point(point: Dict[str, Any]) -> Dict[str, Any]:
    return {}


def measured_pool_overhead(jobs: int) -> float:
    """Wall-clock seconds to spawn a ``jobs``-worker pool and drain one
    no-op shard per worker, measured once per process per worker count.

    This is the break-even threshold the serial fallback compares the
    projected sweep cost against -- a measurement on this machine, not a
    magic constant.
    """
    if jobs not in _CALIBRATION:
        start = time.perf_counter()
        with multiprocessing.Pool(
            jobs, initializer=_worker_init, initargs=(_calibration_point,)
        ) as pool:
            pool.map(_run_shard, [[{}] for _ in range(jobs)])
        _CALIBRATION[jobs] = time.perf_counter() - start
    return _CALIBRATION[jobs]


def sweep(
    fn: PointFn,
    spec: GridSpec,
    *,
    jobs: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> List[Record]:
    """Evaluate ``fn`` at every grid point; returns one record per point.

    Records preserve grid order regardless of ``jobs``: the shard layout is
    a function of ``shard_size`` only and shard outputs are concatenated in
    shard order, so serial and sharded runs are identical.

    With ``jobs > 1``, the first :data:`_PROBE_POINTS` points are
    evaluated inline and the rest of the grid only goes to a worker pool
    when its projected serial cost exceeds the measured pool-spawn
    overhead (:func:`measured_pool_overhead`); below that threshold the
    pool can only lose wall time.  The records
    are identical either way.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    points = spec.points()
    if not points:
        return []
    with span("sweep", points=len(points), jobs=jobs):
        if jobs == 1:
            _SWEEP_RUNS.labels(mode="serial").inc()
            return _run_shard(points, fn)
        records: List[Record] = []
        per_point = math.inf
        for point in points[:_PROBE_POINTS]:
            start = time.perf_counter()
            records.extend(_run_shard([point], fn))
            per_point = min(per_point, time.perf_counter() - start)
        rest = points[_PROBE_POINTS:]
        if not rest:
            _SWEEP_RUNS.labels(mode="serial").inc()
            return records
        if per_point * len(rest) <= measured_pool_overhead(jobs):
            _SWEEP_RUNS.labels(mode="serial").inc()
            return records + _run_shard(rest, fn)
        _SWEEP_RUNS.labels(mode="pooled").inc()
        return records + _pooled(fn, rest, jobs, shard_size)


def _pooled(
    fn: PointFn, points: List[Dict[str, Any]], jobs: int, shard_size: int
) -> List[Record]:
    shards = _shards(points, shard_size)
    with multiprocessing.Pool(
        min(jobs, len(shards)), initializer=_worker_init, initargs=(fn,)
    ) as pool:
        shard_results = _metrics.metered_map(pool, _run_shard, shards)
    return [record for shard in shard_results for record in shard]


RunPointFn = Callable[[Dict[str, Any], int, np.random.SeedSequence], Any]


def adaptive_shots(
    run_point: RunPointFn,
    spec: GridSpec,
    *,
    total_shots: int,
    wave_shots: int,
    initial_shots: Optional[int] = None,
    level: float = 0.95,
    seed: int = 0,
) -> List[Record]:
    """Spend a shared shot budget where the failure estimate is loosest.

    A fixed-shots sweep wastes most of its budget: points deep below
    threshold need orders of magnitude more shots than points near it to
    reach the same confidence.  ``adaptive_shots`` seeds every grid point
    with ``initial_shots``, then repeatedly dispatches one ``wave_shots``
    wave to the point whose failure-rate confidence interval
    (:meth:`~repro.decoder.engine.EngineResult.failure_rate_ci` at
    ``level``) is currently *widest* -- ties break to the lowest grid
    index -- until ``total_shots`` have been allocated.

    Args:
        run_point: ``run_point(point, shots, seed_seq) -> EngineResult``
            (or any object with the same sufficient-statistic fields,
            ``failure_rate_ci`` and ``__add__``).  Waves for one point
            are merged with ``+``, so the function may be importance
            sampled (:func:`repro.estimator.rare.rare_engine`) or brute
            force per point.
        spec: the sweep grid; one record per point, in grid order.
        total_shots: total budget across all points (the last wave is
            truncated to land exactly on it).
        wave_shots: shots per adaptive wave.
        initial_shots: shots of the seeding round every point gets
            before adaptation starts (default ``wave_shots``).
        level: CI level driving the allocation (and reported bounds).
        seed: root entropy.  The wave for (point ``i``, wave ``j``) is
            seeded ``SeedSequence(entropy=seed, spawn_key=(i, j))`` -- a
            pure function of the point and its wave ordinal, never of
            the global allocation order, so per-point shot streams are
            reproducible even if the allocation policy changes.

    Returns:
        One record per grid point: the point's axes plus ``shots``,
        ``failures``, ``rate``, ``weighted_rate``, ``std_error``,
        ``ess``, ``ci_low``, ``ci_high``, and ``waves`` (seeding round
        included).
    """
    if total_shots < 1:
        raise ValueError("total_shots must be >= 1")
    if wave_shots < 1:
        raise ValueError("wave_shots must be >= 1")
    if initial_shots is None:
        initial_shots = wave_shots
    if initial_shots < 1:
        raise ValueError("initial_shots must be >= 1")
    points = spec.points()
    if not points:
        return []
    if initial_shots * len(points) > total_shots:
        raise ValueError(
            f"initial_shots * points = {initial_shots * len(points)} "
            f"exceeds total_shots = {total_shots}"
        )

    def dispatch(index: int, shots: int) -> None:
        seq = np.random.SeedSequence(
            entropy=seed, spawn_key=(index, waves[index])
        )
        result = run_point(points[index], shots, seq)
        results[index] = (
            result if results[index] is None else results[index] + result
        )
        waves[index] += 1
        _ADAPTIVE_WAVES.inc()
        _ADAPTIVE_SHOTS.inc(shots)

    results: List[Any] = [None] * len(points)
    waves = [0] * len(points)
    remaining = total_shots
    with span(
        "sweep.adaptive_shots", points=len(points), total_shots=total_shots
    ):
        for index in range(len(points)):
            dispatch(index, initial_shots)
            remaining -= initial_shots
        while remaining > 0:
            widths = [
                high - low
                for low, high in (
                    res.failure_rate_ci(level) for res in results
                )
            ]
            index = max(range(len(points)), key=lambda i: (widths[i], -i))
            shots = min(wave_shots, remaining)
            dispatch(index, shots)
            remaining -= shots
    final_widths = []
    records: List[Record] = []
    for index, (point, res) in enumerate(zip(points, results)):
        low, high = res.failure_rate_ci(level)
        final_widths.append(high - low)
        records.append({
            **point,
            "shots": res.shots,
            "failures": res.failures,
            "rate": res.rate,
            "weighted_rate": res.weighted_rate,
            "std_error": res.std_error,
            "ess": res.ess,
            "ci_low": low,
            "ci_high": high,
            "waves": waves[index],
        })
    _ADAPTIVE_MAX_CI.set(max(final_widths))
    return records


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of a pruned sweep minimization."""

    best: Record
    best_objective: float
    trace: Tuple[Tuple[Record, float], ...]
    evaluated: int
    pruned: int


def minimize(
    fn: PointFn,
    spec: GridSpec,
    objective: Callable[[Record], float],
    *,
    lower_bound: Optional[Callable[[Dict[str, Any]], float]] = None,
) -> MinimizeResult:
    """Branch-and-bound minimization of ``objective`` over the grid.

    ``lower_bound(point)``, when given, must be a cheap *sound* bound: it
    never exceeds the true objective at that point.  Points whose bound is
    already >= the best objective seen are skipped without evaluating
    ``fn``, leaving the argmin unchanged.  The scan is serial (pruning
    state is inherently ordered); the per-point sub-model calls still share
    the process-wide memoization cache.
    """
    points = spec.points()
    if not points:
        raise ValueError("empty sweep grid")
    best: Optional[Record] = None
    best_objective = math.inf
    trace: List[Tuple[Record, float]] = []
    pruned = 0
    for point in points:
        if (
            lower_bound is not None
            and best is not None
            and lower_bound(point) >= best_objective
        ):
            pruned += 1
            continue
        record = _as_record(point, fn(point))
        value = objective(record)
        trace.append((record, value))
        if value < best_objective:
            best_objective = value
            best = record
    if best is None:
        # Every evaluated objective was inf (or NaN): nothing to rank.
        raise ValueError(
            f"no grid point produced a finite objective "
            f"({len(trace)} evaluated)"
        )
    _MINIMIZE_EVALUATED.inc(len(trace))
    _MINIMIZE_PRUNED.inc(pruned)
    return MinimizeResult(
        best=best,
        best_objective=best_objective,
        trace=tuple(trace),
        evaluated=len(trace),
        pruned=pruned,
    )
