"""Unit tests for the estimation pipeline: sweep engine, cache, registry."""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest

from repro.core.cache import cache_stats, caching_disabled, clear_caches, memoized
import importlib

# `repro.estimator.sweep` the *attribute* is shadowed by the function of
# the same name re-exported from the package __init__.
sweep_module = importlib.import_module("repro.estimator.sweep")
# WorkerPool, the only place a pool is built, lives here.
metrics_module = importlib.import_module("repro.obs.metrics")

from repro.estimator.sweep import (
    Axis,
    GridSpec,
    grid,
    minimize,
    sweep,
    zipped,
)


def _square_point(point):
    return {"square": point["x"] * point["x"]}


def _pair_point(point):
    return {"product": point["x"] * point["y"]}


def _slow_point(fn, point):
    time.sleep(0.002)
    return fn(point)


class TestGridSpec:
    def test_cartesian_order_last_axis_fastest(self):
        spec = grid(a=(1, 2), b=(10, 20))
        assert spec.points() == [
            {"a": 1, "b": 10},
            {"a": 1, "b": 20},
            {"a": 2, "b": 10},
            {"a": 2, "b": 20},
        ]
        assert len(spec) == 4

    def test_zipped_alignment(self):
        spec = zipped(a=(1, 2, 3), b=(10, 20, 30))
        assert spec.points() == [
            {"a": 1, "b": 10},
            {"a": 2, "b": 20},
            {"a": 3, "b": 30},
        ]
        assert len(spec) == 3

    def test_zipped_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            zipped(a=(1, 2), b=(1,))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            grid(a=())

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ValueError):
            GridSpec((Axis("a", (1,)), Axis("a", (2,))))


class TestSweep:
    def test_records_merge_point_and_result(self):
        records = sweep(_square_point, grid(x=(1, 2, 3)))
        assert records == [
            {"x": 1, "square": 1},
            {"x": 2, "square": 4},
            {"x": 3, "square": 9},
        ]

    def test_scalar_results_stored_under_value(self):
        records = sweep(lambda p: p["x"] + 1, grid(x=(1, 2)))
        assert records == [{"x": 1, "value": 2}, {"x": 2, "value": 3}]

    def test_sweep_never_starts_a_process(self, monkeypatch):
        # Slow points and a multi-point grid: nothing may reach for a pool.
        monkeypatch.setattr(
            metrics_module.multiprocessing, "Pool", _forbidden_pool
        )
        spec = grid(x=tuple(range(6)), y=(1, 2))
        before = sweep_module._POINTS.value
        records = sweep(partial(_slow_point, _pair_point), spec)
        assert records == [
            {**point, "product": point["x"] * point["y"]}
            for point in spec.points()
        ]
        if metrics_module.enabled():
            assert sweep_module._POINTS.value == before + len(spec)

    def test_concurrent_inline_sweeps_keep_their_point_functions(self):
        # Threads sweep different point functions inline at once; the
        # sleeps interleave their points, so any shared slot would swap
        # functions.
        spec = grid(x=tuple(range(6)), y=(1, 2))
        functions = [partial(_slow_point, _square_point),
                     partial(_slow_point, _pair_point),
                     partial(_slow_point, lambda point: -point["x"])]
        serial = [sweep(fn, spec) for fn in functions]
        with ThreadPoolExecutor(len(functions)) as pool:
            futures = [pool.submit(sweep, fn, spec) for fn in functions]
            assert [f.result(timeout=60) for f in futures] == serial


def _forbidden_pool(*args, **kwargs):
    raise AssertionError("a worker pool must not be spawned here")


class TestMinimize:
    def test_finds_argmin_without_bound(self):
        result = minimize(
            lambda p: {"v": (p["x"] - 3) ** 2},
            grid(x=tuple(range(7))),
            objective=lambda r: r["v"],
        )
        assert result.best["x"] == 3
        assert result.best_objective == 0
        assert result.evaluated == 7
        assert result.pruned == 0

    def test_sound_bound_prunes_without_moving_argmin(self):
        evaluated = []

        def fn(point):
            evaluated.append(point["x"])
            return {"v": (point["x"] - 3) ** 2}

        # Half the true objective: sound (never exceeds it), so points with
        # bound >= best-so-far can be skipped safely.
        result = minimize(
            fn,
            grid(x=tuple(range(20))),
            objective=lambda r: r["v"],
            lower_bound=lambda p: (p["x"] - 3) ** 2 / 2.0,
        )
        assert result.best["x"] == 3
        assert result.pruned > 0
        assert result.evaluated == len(evaluated) < 20

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            minimize(
                lambda p: 0.0, GridSpec(()), objective=lambda r: r["value"]
            )

    def test_all_infinite_objectives_rejected(self):
        with pytest.raises(ValueError, match="finite objective"):
            minimize(
                lambda p: math.inf,
                grid(x=(1, 2, 3)),
                objective=lambda r: r["value"],
            )


class TestCache:
    def test_hits_counted_and_clearable(self):
        calls = []

        @memoized
        def model(x):
            calls.append(x)
            return x * x

        assert model(2) == 4
        assert model(2) == 4
        assert calls == [2]
        name = next(
            n for n in cache_stats()
            if n.endswith("test_hits_counted_and_clearable.<locals>.model")
        )
        hits, misses, size = cache_stats()[name]
        assert (hits, misses, size) == (1, 1, 1)
        clear_caches()
        assert cache_stats()[name] == (0, 0, 0)
        assert model(2) == 4
        assert calls == [2, 2]

    def test_unhashable_arguments_bypass_cache(self):
        @memoized
        def total(values):
            return sum(values)

        assert total([1, 2, 3]) == 6
        assert total((1, 2, 3)) == 6  # hashable path still works

    def test_caching_disabled_context(self):
        calls = []

        @memoized
        def model(x):
            calls.append(x)
            return -x

        model(1)
        with caching_disabled():
            model(1)
            model(1)
        assert calls == [1, 1, 1]
        model(1)  # cache entry from before the context still valid
        assert calls == [1, 1, 1]


class TestOptimizerSweep:
    def test_pruning_preserves_argmin_and_volume(self):
        from repro.algorithms.optimizer import optimize_factoring

        pruned = optimize_factoring()
        full = optimize_factoring(prune=False)
        assert pruned.parameters == full.parameters
        assert pruned.spacetime_volume == full.spacetime_volume
        assert pruned.num_pruned > 0
        assert len(pruned.trace) + pruned.num_pruned == len(full.trace)

    def test_volume_lower_bound_is_sound_on_grid(self):
        from repro.algorithms.factoring import (
            estimate_factoring,
            spacetime_volume_lower_bound,
        )
        from repro.algorithms.optimizer import candidate_parameters

        for params in candidate_parameters(
            window_exp_range=(2, 5), window_mul_range=(3,),
            runway_separations=(48, 256, 1024),
        ):
            est = estimate_factoring(params)
            true_volume = est.physical_qubits * est.runtime_seconds
            assert spacetime_volume_lower_bound(params) <= true_volume

    def test_custom_candidates_still_supported(self):
        from repro.algorithms.optimizer import (
            candidate_parameters,
            optimize_factoring,
        )

        result = optimize_factoring(
            candidates=candidate_parameters(
                window_exp_range=(3,), window_mul_range=(4,),
                runway_separations=(96,),
            )
        )
        assert result.parameters.runway_separation == 96


# memory_rare is the one scenario whose ``jobs`` runs work in parallel
# (as its engines' workers); 1600-shot waves span two 1024-shot shards.
# The analytic scenarios ignore ``jobs``.
_SHARDING_PARAMS = {
    "memory_rare": dict(
        distances=(3,), ps=(3e-3, 1e-3), total_shots=4800,
        wave_shots=1600, initial_shots=1600,
    ),
}


class TestScenarioSharding:
    @pytest.mark.parametrize(
        "name", ["fig11", "fig13", "fig14", "fig6b", "memory_rare"]
    )
    def test_sharded_matches_serial(self, name):
        from repro.estimator.registry import run_scenario

        params = _SHARDING_PARAMS.get(name, {})
        serial = run_scenario(name, jobs=1, **params)
        sharded = run_scenario(name, jobs=2, **params)
        assert serial.records == sharded.records
        assert serial.metadata == sharded.metadata

    def test_registry_rejects_unknown_and_duplicate(self):
        from repro.estimator.registry import (
            Scenario,
            get_scenario,
            register_scenario,
        )

        with pytest.raises(KeyError, match="available"):
            get_scenario("does-not-exist")
        existing = get_scenario("fig13")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(existing)


def test_uncached_sweep_is_slower_than_cached():
    """The memoized sub-models make the Table II sweep markedly faster."""
    import time

    from repro.algorithms.optimizer import optimize_factoring

    clear_caches()
    start = time.perf_counter()
    cached = optimize_factoring(prune=False)
    cached_s = time.perf_counter() - start

    clear_caches()
    with caching_disabled():
        start = time.perf_counter()
        uncached = optimize_factoring(prune=False)
        uncached_s = time.perf_counter() - start

    assert cached.parameters == uncached.parameters
    # Conservative in-test bound (the benchmark runner documents the real
    # speedup); mainly guards against the cache being silently bypassed.
    assert uncached_s > cached_s
