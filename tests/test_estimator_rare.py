"""Tests for the rare-event Monte-Carlo engine.

Covers DEM reweighting (cap, merge commutation, consistency gating), the
``check_reweight`` defect matrix, weighted EngineResult statistics and the
Wilson CI, importance-sampled runs (unbiasedness in the overlap region,
worker-count invariance, early-stop contracts), adaptive sweep shot
budgeting, and the ``memory_rare`` scenario.
"""

import math

import numpy as np
import pytest

from repro.analysis import available_passes, check_reweight, verify_dem
from repro.analysis.diagnostics import VerificationError
from repro.decoder.engine import DecodingEngine, EngineResult
from repro.estimator.rare import (
    ImportanceSampler,
    rare_engine,
    suggested_inflation,
)
from repro.estimator.sweep import adaptive_shots, grid
from repro.noise.dem import DetectorErrorModel, ErrorMechanism, extract_dem
from repro.sim.memory import memory_circuit


def _dem(mechs, num_detectors=4, num_observables=1):
    return DetectorErrorModel(
        tuple(ErrorMechanism(p, tuple(d), tuple(o)) for p, d, o in mechs),
        num_detectors,
        num_observables,
    )


# -- DetectorErrorModel.reweighted ----------------------------------------------


class TestReweighted:
    def test_uniform_inflation(self):
        dem = _dem([(0.01, (0,), ()), (0.02, (1, 2), (0,))])
        out = dem.reweighted(3.0)
        assert [m.probability for m in out.mechanisms] == [
            pytest.approx(0.03), pytest.approx(0.06)
        ]

    def test_topology_preserved(self):
        dem = _dem([(0.01, (0,), ()), (0.02, (1, 2), (0,))])
        out = dem.reweighted(5.0)
        assert [(m.detectors, m.observables) for m in out.mechanisms] == [
            (m.detectors, m.observables) for m in dem.mechanisms
        ]
        assert out.num_detectors == dem.num_detectors
        assert out.num_observables == dem.num_observables

    def test_cap_at_half(self):
        dem = _dem([(0.2, (0,), ())])
        assert dem.reweighted(10.0).mechanisms[0].probability == 0.5

    def test_custom_cap(self):
        dem = _dem([(0.2, (0,), ())])
        assert dem.reweighted(10.0, max_probability=0.4).mechanisms[
            0
        ].probability == 0.4

    def test_invalid_args(self):
        dem = _dem([(0.1, (0,), ())])
        with pytest.raises(ValueError, match="inflation"):
            dem.reweighted(0.0)
        with pytest.raises(ValueError, match="max_probability"):
            dem.reweighted(2.0, max_probability=0.7)

    def test_commutes_with_merge_for_disjoint_symptoms(self):
        # Distinct symptom sets: merged() only sorts, so reweight and
        # merge must commute exactly.
        dem = _dem([
            (0.03, (1, 2), ()),
            (0.01, (0,), ()),
            (0.02, (3,), (0,)),
        ])
        a = dem.reweighted(4.0).merged()
        b = dem.merged().reweighted(4.0)
        assert a.mechanisms == b.mechanisms

    def test_verify_dem_rejects_over_inflated(self):
        # Seeded defect: a mechanism pushed beyond 0.5 (bypassing the
        # reweighted() cap) must be an error in dem_consistency.
        bad = _dem([(0.7, (0,), ())])
        with pytest.raises(VerificationError, match="exceeds 0.5"):
            verify_dem(bad)


# -- check_reweight defect matrix -----------------------------------------------


class TestCheckReweight:
    def _pair(self):
        dem = _dem([(0.01, (0,), ()), (0.02, (1, 2), (0,))])
        return dem, dem.reweighted(3.0)

    def test_clean_pair(self):
        dem, prop = self._pair()
        assert check_reweight(dem, prop) == []

    def test_symptom_space_mismatch(self):
        dem, _ = self._pair()
        other = _dem([(0.01, (0,), ()), (0.02, (1, 2), (0,))],
                     num_detectors=5)
        diags = check_reweight(dem, other)
        assert any("symptom space" in d.message for d in diags)

    def test_mechanism_count_change(self):
        dem, _ = self._pair()
        dropped = _dem([(0.03, (0,), ())])
        diags = check_reweight(dem, dropped)
        assert any("one-for-one" in d.message for d in diags)

    def test_symptom_change(self):
        dem, _ = self._pair()
        moved = _dem([(0.03, (1,), ()), (0.06, (1, 2), (0,))])
        diags = check_reweight(dem, moved)
        assert any("symptom changed" in d.message for d in diags)

    def test_zero_proposal_weight(self):
        dem, _ = self._pair()
        starved = _dem([(0.0, (0,), ()), (0.06, (1, 2), (0,))])
        diags = check_reweight(dem, starved)
        assert any("zero proposal weight" in d.message for d in diags)
        assert any(d.severity == "error" for d in diags)

    def test_over_half_proposal(self):
        dem, _ = self._pair()
        hot = _dem([(0.6, (0,), ()), (0.06, (1, 2), (0,))])
        diags = check_reweight(dem, hot)
        assert any("exceeds 0.5" in d.message for d in diags)

    def test_inflated_zero_prob_warns(self):
        dem = _dem([(0.0, (0,), ()), (0.02, (1, 2), (0,))])
        prop = _dem([(0.1, (0,), ()), (0.06, (1, 2), (0,))])
        diags = check_reweight(dem, prop)
        assert any(
            d.severity == "warning" and "zero-probability" in d.message
            for d in diags
        )

    def test_pass_registered(self):
        assert "dem_reweight" in available_passes(scope="circuit")


# -- EngineResult statistics ----------------------------------------------------


class TestEngineResult:
    def test_uniform_defaults(self):
        res = EngineResult(shots=100, failures=7, shards=2)
        assert res.weighted_failures == 7.0
        assert res.weight_sum == 100.0
        assert res.ess == 100.0
        assert res.weighted_rate == res.rate == pytest.approx(0.07)

    def test_add_merges_all_fields(self):
        a = EngineResult(shots=10, failures=1, shards=1,
                         shots_beyond_stop=5)
        b = EngineResult(shots=20, failures=3, shards=2)
        c = a + b
        assert (c.shots, c.failures, c.shards) == (30, 4, 3)
        assert c.weight_sum == 30.0
        assert c.weighted_failures == 4.0
        assert c.shots_beyond_stop == 5

    def test_variance_uniform_matches_binomial(self):
        res = EngineResult(shots=1000, failures=100, shards=1)
        # Unbiased sample variance of a Bernoulli(0.1) sample, over n.
        expected = (100 - 1000 * 0.1 * 0.1) / (999 * 1000)
        assert res.variance == pytest.approx(expected)
        assert res.std_error == pytest.approx(math.sqrt(expected))
        assert res.rel_error == pytest.approx(res.std_error / 0.1)

    def test_degenerate_variance(self):
        assert EngineResult(shots=0, failures=0, shards=0).variance == 0.0
        assert EngineResult(shots=1, failures=0, shards=1).variance == math.inf
        assert EngineResult(shots=0, failures=0, shards=0).rel_error == math.inf

    def test_wilson_ci_known_values(self):
        # 3/10 at 95%: the textbook Wilson interval (0.1078, 0.6032).
        res = EngineResult(shots=10, failures=3, shards=1)
        low, high = res.failure_rate_ci()
        assert low == pytest.approx(0.10779, abs=1e-4)
        assert high == pytest.approx(0.60322, abs=1e-4)

    def test_wilson_ci_zero_failures_informative(self):
        # 0/50 at 95%: upper bound ~ z^2/(n + z^2), not zero.
        res = EngineResult(shots=50, failures=0, shards=1)
        low, high = res.failure_rate_ci()
        assert low == 0.0
        z = 1.959964
        assert high == pytest.approx(z * z / (50 + z * z), abs=1e-6)

    def test_wilson_ci_validation(self):
        res = EngineResult(shots=10, failures=3, shards=1)
        with pytest.raises(ValueError, match="level"):
            res.failure_rate_ci(level=1.0)
        assert EngineResult(shots=0, failures=0, shards=0).failure_rate_ci() \
            == (0.0, 1.0)


# -- ImportanceSampler ----------------------------------------------------------


@pytest.fixture(scope="module")
def d3_circuit():
    return memory_circuit(3, 2, 3e-3)


@pytest.fixture(scope="module")
def d3_dem(d3_circuit):
    return extract_dem(d3_circuit)


class TestImportanceSampler:
    def test_requires_proposal_or_inflation(self, d3_dem):
        with pytest.raises(ValueError, match="proposal"):
            ImportanceSampler(d3_dem)
        with pytest.raises(ValueError, match="not both"):
            ImportanceSampler(
                d3_dem, d3_dem.reweighted(2.0), inflation=2.0
            )

    def test_verify_gate_rejects_broken_pair(self, d3_dem):
        starved = DetectorErrorModel(
            tuple(
                ErrorMechanism(0.0, m.detectors, m.observables)
                for m in d3_dem.mechanisms
            ),
            d3_dem.num_detectors,
            d3_dem.num_observables,
        )
        with pytest.raises(VerificationError):
            ImportanceSampler(d3_dem, starved)

    def test_inflation_one_gives_unit_weights(self, d3_dem):
        sampler = ImportanceSampler(d3_dem, inflation=1.0)
        det, obs, llr = sampler.sample_weighted(
            256, np.random.default_rng(3)
        )
        assert det.shape == (256, (d3_dem.num_detectors + 7) // 8)
        assert obs.shape == (256, (d3_dem.num_observables + 7) // 8)
        assert np.all(llr == 0.0)

    def test_matches_unweighted_dem_statistics(self, d3_dem):
        # At inflation 1 the sampler draws the original model: the mean
        # detector-bit density must match sum(p_k * |detectors_k|) / nd.
        sampler = ImportanceSampler(d3_dem, inflation=1.0)
        det, _, _ = sampler.sample_weighted(
            20_000, np.random.default_rng(11)
        )
        bits = np.unpackbits(det, axis=1, count=d3_dem.num_detectors)
        expected = sum(
            m.probability * len(m.detectors) for m in d3_dem.mechanisms
        )
        # Firings XOR (rarely overlapping at p~3e-3), so the observed bit
        # count sits just under the expected firing-bit count.
        assert bits.sum() / 20_000 == pytest.approx(expected, rel=0.1)

    def test_weighted_mean_is_unbiased_for_known_model(self):
        # Two-mechanism model where the failure probability is exact:
        # the observable flips iff mechanism 1 fires.
        dem = _dem(
            [(0.01, (0,), ()), (0.004, (1,), (0,))],
            num_detectors=2,
        )
        sampler = ImportanceSampler(dem, inflation=20.0)
        rng = np.random.default_rng(5)
        det, obs, llr = sampler.sample_weighted(200_000, rng)
        w = np.exp(llr)
        fails = np.unpackbits(obs, axis=1, count=1)[:, 0].astype(bool)
        estimate = float(w[fails].sum()) / 200_000
        assert estimate == pytest.approx(0.004, rel=0.05)
        # Weight normalization: E_q[w] = 1.
        assert float(w.mean()) == pytest.approx(1.0, rel=0.02)


class TestSuggestedInflation:
    def test_monotonic_in_failure_weight(self):
        dem = _dem([(0.01, (0,), ()), (0.02, (1,), ())])
        s2 = suggested_inflation(dem, 2)
        s4 = suggested_inflation(dem, 4)
        assert 1.0 < s2 < s4

    def test_zero_mass_model(self):
        dem = _dem([(0.0, (0,), ())])
        assert suggested_inflation(dem, 3) == 1.0

    def test_validation(self):
        dem = _dem([(0.01, (0,), ())])
        with pytest.raises(ValueError, match="min_failure_weight"):
            suggested_inflation(dem, 0)

    def test_solves_stationarity(self):
        # s maximizes s^k exp(-T(s-1)^2/s)  <=>  k = T (s - 1/s).
        dem = _dem([(0.2, (0,), ()), (0.3, (1,), ())])
        total = 0.5
        s = suggested_inflation(dem, 3)
        assert total * (s - 1.0 / s) == pytest.approx(3.0)


# -- importance-sampled engine runs ---------------------------------------------


def assert_agrees_with_brute_force_d5(rounds, brute_shots, is_shots, seed):
    """Importance sampling and brute force agree within 2 combined sigma
    at d=5, p=3e-3, with the effective sample size above 0.1 * shots."""
    # Shot counts keep the statistical error (~10%) above the DEM
    # approximation's ~5% systematic offset at this point.
    circuit = memory_circuit(5, rounds, 3e-3)
    with DecodingEngine(circuit, "mwpm", shard_shots=4096) as brute:
        rb = brute.run(brute_shots, seed=seed)
    with rare_engine(circuit, "mwpm", inflation=2.5, shard_shots=4096) as rare:
        ri = rare.run(is_shots, seed=seed)
    sigma = math.hypot(rb.std_error, ri.std_error)
    assert abs(ri.weighted_rate - rb.rate) <= 2.0 * sigma
    # Below 0.1 * shots a few heavy weights dominate the estimate.
    assert ri.ess >= 0.1 * ri.shots


class TestRareEngine:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agrees_with_brute_force_d3(self, d3_circuit, seed):
        # Overlap region: both estimators measure the same quantity;
        # sigma is statistical + the O(p^2) DEM-approximation offset.
        with DecodingEngine(
            d3_circuit, "mwpm", shard_shots=2048
        ) as brute:
            rb = brute.run(60_000, seed=seed)
        with rare_engine(
            d3_circuit, "mwpm", inflation=3.0, shard_shots=2048
        ) as rare:
            ri = rare.run(20_000, seed=seed)
        sigma = math.hypot(rb.std_error, ri.std_error)
        assert abs(ri.weighted_rate - rb.rate) <= 2.0 * sigma
        assert ri.ess > 0.1 * ri.shots

    def test_agrees_with_brute_force_d5(self):
        assert_agrees_with_brute_force_d5(2, 60_000, 15_000, seed=23)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "brute_shots,is_shots", [(30_000, 8_000), (60_000, 15_000)],
        ids=["quick", "full"],
    )
    def test_agrees_with_brute_force_d5_r3(self, brute_shots, is_shots):
        assert_agrees_with_brute_force_d5(3, brute_shots, is_shots, seed=37)

    def test_worker_count_invariance(self, d3_circuit):
        results = []
        for workers in (1, 4):
            with rare_engine(
                d3_circuit, "mwpm", inflation=4.0,
                shard_shots=512, workers=workers,
            ) as engine:
                results.append(engine.run(4096, seed=13))
        a, b = results
        assert a.weighted_failures == b.weighted_failures
        assert a.weighted_failures_sq == b.weighted_failures_sq
        assert a.weight_sum == b.weight_sum
        assert a.weight_sq_sum == b.weight_sq_sum
        assert a.ess == b.ess
        assert (a.shots, a.failures, a.shards) == (b.shots, b.failures, b.shards)

    def test_collect_unavailable(self, d3_circuit):
        with rare_engine(d3_circuit, "mwpm", inflation=2.0) as engine:
            with pytest.raises(ValueError, match="collect"):
                engine.collect(100)

    def test_default_inflation_from_suggestion(self, d3_circuit, d3_dem):
        with rare_engine(
            d3_circuit, "mwpm", min_failure_weight=2
        ) as engine:
            assert engine.sampler.inflation == pytest.approx(
                suggested_inflation(d3_dem, 2)
            )


class TestEarlyStopContracts:
    def test_shots_beyond_stop_multi_worker(self, d3_circuit):
        # target_failures=1 with several shards in flight: the stop lands
        # inside the first wave, and the rest of that wave is overshoot.
        kwargs = dict(shard_shots=64, observable=None)
        with DecodingEngine(
            d3_circuit, "mwpm", workers=4, **kwargs
        ) as engine:
            multi = engine.run_until(1, 4096, seed=101)
        with DecodingEngine(
            d3_circuit, "mwpm", workers=1, **kwargs
        ) as engine:
            serial = engine.run_until(1, 4096, seed=101)
        # Counted prefix is worker-invariant; the overshoot is not.
        assert (multi.shots, multi.failures, multi.shards) == (
            serial.shots, serial.failures, serial.shards
        )
        assert serial.shots_beyond_stop == 0
        assert multi.shots_beyond_stop > 0
        assert multi.shots_beyond_stop % 64 == 0

    def test_fixed_run_has_no_overshoot(self, d3_circuit):
        with DecodingEngine(d3_circuit, "mwpm", shard_shots=64) as engine:
            res = engine.run(640, seed=3)
        assert res.shots_beyond_stop == 0

    def test_run_until_rel_error_stops(self, d3_circuit):
        with rare_engine(
            d3_circuit, "mwpm", inflation=3.0, shard_shots=1024
        ) as engine:
            res = engine.run_until_rel_error(0.2, 200_000, seed=7)
        assert res.failures >= 5
        assert res.rel_error <= 0.2
        assert res.shots < 200_000

    def test_run_until_rel_error_respects_cap(self, d3_circuit):
        with DecodingEngine(d3_circuit, "mwpm", shard_shots=512) as engine:
            res = engine.run_until_rel_error(1e-6, 2048, seed=7)
        assert res.shots == 2048

    def test_run_until_rel_error_invariance(self, d3_circuit):
        results = []
        for workers in (1, 3):
            with rare_engine(
                d3_circuit, "mwpm", inflation=3.0,
                shard_shots=512, workers=workers,
            ) as engine:
                results.append(
                    engine.run_until_rel_error(0.25, 100_000, seed=19)
                )
        a, b = results
        assert (a.shots, a.failures) == (b.shots, b.failures)
        assert a.weighted_failures == b.weighted_failures
        assert a.ess == b.ess

    def test_run_until_rel_error_validation(self, d3_circuit):
        with DecodingEngine(d3_circuit, "mwpm") as engine:
            with pytest.raises(ValueError, match="target_rel_err"):
                engine.run_until_rel_error(0.0, 100)
            with pytest.raises(ValueError, match="min_failures"):
                engine.run_until_rel_error(0.1, 100, min_failures=0)


# -- adaptive sweep budgeting ---------------------------------------------------


def _binomial_run_point(point, shots, seq):
    rng = np.random.default_rng(seq)
    return EngineResult(
        shots=shots,
        failures=int(rng.binomial(shots, point["p"])),
        shards=1,
    )


class TestAdaptiveShots:
    def test_budget_spent_exactly(self):
        records = adaptive_shots(
            _binomial_run_point,
            grid(p=[0.2, 0.001, 0.05]),
            total_shots=5000, wave_shots=500, initial_shots=200, seed=3,
        )
        assert sum(r["shots"] for r in records) == 5000
        assert all(r["shots"] >= 200 for r in records)

    def test_allocates_to_widest_ci(self):
        # The high-rate point has the widest binomial CI throughout, so
        # it must absorb every adaptive wave.
        records = adaptive_shots(
            _binomial_run_point,
            grid(p=[0.4, 1e-5]),
            total_shots=3000, wave_shots=500, initial_shots=500, seed=1,
        )
        by_p = {r["p"]: r for r in records}
        assert by_p[0.4]["shots"] == 2500
        assert by_p[1e-5]["shots"] == 500

    def test_deterministic(self):
        args = dict(
            total_shots=4000, wave_shots=400, initial_shots=200, seed=9
        )
        spec = grid(p=[0.1, 0.02])
        assert adaptive_shots(_binomial_run_point, spec, **args) == \
            adaptive_shots(_binomial_run_point, spec, **args)

    def test_record_fields(self):
        records = adaptive_shots(
            _binomial_run_point, grid(p=[0.1]),
            total_shots=1000, wave_shots=500, seed=2,
        )
        (rec,) = records
        for field in (
            "shots", "failures", "rate", "weighted_rate", "std_error",
            "ess", "ci_low", "ci_high", "waves",
        ):
            assert field in rec
        assert rec["ci_low"] <= rec["rate"] <= rec["ci_high"]
        assert rec["waves"] == 2

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="exceeds total_shots"):
            adaptive_shots(
                _binomial_run_point, grid(p=[0.1, 0.2]),
                total_shots=300, wave_shots=100, initial_shots=200,
            )
        with pytest.raises(ValueError, match="total_shots"):
            adaptive_shots(
                _binomial_run_point, grid(p=[0.1]),
                total_shots=0, wave_shots=100,
            )

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5])
    def test_level_rejected_before_any_wave(self, level):
        calls = []

        def recording_run_point(point, shots, seq):
            calls.append(point)
            return _binomial_run_point(point, shots, seq)

        with pytest.raises(ValueError, match="level"):
            adaptive_shots(
                recording_run_point, grid(p=[0.1, 0.2]),
                total_shots=1000, wave_shots=100, level=level,
            )
        assert calls == []

    def test_wave_seeds_are_order_independent(self):
        # The (point, wave) seed stream is a pure function of the grid
        # index and wave ordinal: reordering *other* axes' allocation
        # cannot change what a given point's first wave samples.
        seen = {}

        def record_seeds(point, shots, seq):
            seen.setdefault(point["p"], []).append(seq.spawn_key)
            return _binomial_run_point(point, shots, seq)

        adaptive_shots(
            record_seeds, grid(p=[0.3, 0.1]),
            total_shots=2000, wave_shots=500, initial_shots=500, seed=4,
        )
        assert seen[0.3][0] == (0, 0)
        assert seen[0.1][0] == (1, 0)


# -- memory_rare scenario -------------------------------------------------------


class TestMemoryRareScenario:
    def test_build_smoke(self):
        from repro.experiments.rare_sweeps import _build_memory_rare

        result = _build_memory_rare(
            distances=(3,), ps=(3e-3, 1e-3), rounds=2,
            total_shots=1200, wave_shots=300, initial_shots=300, seed=5,
        )
        assert result.scenario == "memory_rare"
        assert len(result.records) == 2
        assert sum(r["shots"] for r in result.records) == 1200
        for rec in result.records:
            assert rec["inflation"] > 1.0
            assert rec["ess"] > 0.0

    def test_render(self):
        from repro.estimator.registry import get_scenario
        from repro.experiments.rare_sweeps import _build_memory_rare

        result = _build_memory_rare(
            distances=(3,), ps=(3e-3,), rounds=2,
            total_shots=600, wave_shots=300, initial_shots=300, seed=5,
        )
        text = get_scenario("memory_rare").render(result)
        assert "importance-sampled" in text

    def test_registered(self):
        from repro.estimator.registry import available_scenarios

        assert "memory_rare" in available_scenarios()
