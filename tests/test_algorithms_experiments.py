"""Tests for the factoring estimator, optimizer, chemistry and experiments."""

import pytest

from repro.algorithms.chemistry import estimate_chemistry, fermi_hubbard_reference
from repro.algorithms.factoring import FactoringParameters, estimate_factoring
from repro.algorithms.optimizer import optimize_factoring, table_ii
from repro.baselines.qldpc import QLDPCStorageModel
from repro.core.params import ArchitectureConfig, ErrorParams
from repro.experiments import fig2, fig6, fig12, fig13, fig14


class TestFactoringHeadline:
    @pytest.fixture(scope="class")
    def estimate(self):
        return estimate_factoring()

    def test_runtime_about_5_6_days(self, estimate):
        assert estimate.runtime_seconds / 86400 == pytest.approx(5.6, rel=0.15)

    def test_qubits_about_19_million(self, estimate):
        assert estimate.physical_qubits == pytest.approx(19e6, rel=0.25)

    def test_factories_near_192(self, estimate):
        assert 120 <= estimate.num_factories <= 192

    def test_lookup_and_addition_times(self, estimate):
        assert estimate.lookup_time == pytest.approx(0.17, abs=0.03)
        assert estimate.addition_time == pytest.approx(0.28, abs=0.02)

    def test_ccz_count(self, estimate):
        assert estimate.total_ccz == pytest.approx(3e9, rel=0.15)

    def test_budget_closes_at_mle_lambda(self):
        # With the paper's MLE-decoder fit (Lambda ~ 20) the d = 27 run
        # meets a ~10% total budget; the conservative Lambda = 10 needs
        # d = 31+ (documented in EXPERIMENTS.md).
        config = ArchitectureConfig(error=ErrorParams(p_thres=2e-2))
        est = estimate_factoring(config=config)
        assert est.logical_error < 0.15

    def test_idle_storage_4_to_6_million(self, estimate):
        idle = estimate.space_breakdown["lookup"]["storage"]
        assert 2e6 < idle < 8e6

    def test_qldpc_saving_about_20_percent(self, estimate):
        idle = estimate.space_breakdown["lookup"]["storage"]
        reduction = QLDPCStorageModel().footprint_reduction(
            estimate.as_resource_estimate(), idle
        )
        assert 0.1 < reduction < 0.35

    def test_scaling_with_modulus(self):
        small = estimate_factoring(FactoringParameters(modulus_bits=1024))
        big = estimate_factoring(FactoringParameters(modulus_bits=2048))
        assert small.runtime_seconds < big.runtime_seconds
        assert small.physical_qubits < big.physical_qubits


class TestOptimizer:
    @pytest.fixture(scope="class")
    def result(self):
        return optimize_factoring()

    def test_windows_match_table_ii(self, result):
        assert result.parameters.window_exp == 3
        assert result.parameters.window_mul in (3, 4)

    def test_runway_separation_far_below_ge(self, result):
        assert result.parameters.runway_separation <= 128

    def test_optimum_beats_ge_parameters(self, result):
        ge_like = FactoringParameters(
            window_exp=5, window_mul=5, runway_separation=1024
        )
        ge_est = estimate_factoring(ge_like)
        assert result.spacetime_volume < (
            ge_est.physical_qubits * ge_est.runtime_seconds
        )

    def test_table_ii_contains_both_columns(self):
        rows = table_ii()
        assert set(rows) == {"ours", "gidney_ekera"}
        assert rows["gidney_ekera"]["runway_separation"] == 1024


class TestChemistry:
    def test_reference_instance_estimates(self):
        est = estimate_chemistry(fermi_hubbard_reference())
        assert est.runtime_seconds > 0
        assert est.total_ccz > 1e8
        assert est.physical_qubits > 1e5

    def test_accuracy_drives_runtime(self):
        base = fermi_hubbard_reference()
        loose = estimate_chemistry(
            type(base)(base.num_orbitals, base.thc_rank, base.lambda_value, 1e-2)
        )
        tight = estimate_chemistry(base)
        assert tight.runtime_seconds > loose.runtime_seconds


class TestFig6aMonteCarlo:
    """Fig. 6(a)'s fit from the Monte-Carlo decoding engine."""

    @pytest.fixture(scope="class")
    def serial(self):
        return fig6.generate_fig6a(shots=600, seed=31)

    def test_fit_constants(self, serial):
        assert serial.memory_fit.lam > 2.0
        assert 0.0 <= serial.alpha_fit.alpha < 20.0

    def test_data_invariant_to_workers(self, serial):
        assert fig6.generate_fig6a(shots=600, seed=31, workers=2).data == serial.data


class TestExperiments:
    def test_fig2_ordering(self):
        points = fig2.generate()
        ours = points[0]
        assert all(ours.days < p.days for p in points[1:])
        assert fig2.speedup_vs_ge() > 20

    def test_fig6b_monotone_beyond_optimum(self):
        curve = fig6.generate_fig6b()
        assert curve[8.0] > curve[1.0]

    def test_fig6b_optimum_at_most_one_round_per_cnot(self):
        # Paper Fig. 6(b): at p = 1e-3 the volume-optimal schedule runs at
        # most one SE round per CNOT.
        curve = fig6.generate_fig6b()
        assert min(curve, key=curve.get) <= 1.0

    def test_fig12_fanout_dominates_lookup_error(self):
        est = fig12.generate()
        fracs = fig12.error_fractions(est)
        assert abs(sum(fracs.values()) - 1.0) < 1e-9

    def test_fig13_volume_rises_with_alpha(self):
        curve = fig13.volume_vs_alpha(alphas=(1 / 6, 1 / 2))
        assert curve[1 / 2] > curve[1 / 6]

    def test_fig13_threshold_drop_under_2x(self):
        assert 1.0 < fig13.threshold_drop_cost() < 2.0

    def test_fig14_tradeoff_monotone(self):
        points = fig14.qubit_time_tradeoff(runway_separations=(48, 96, 384))
        days = [d for _, d in points]
        assert days == sorted(days)


class TestCLI:
    def test_headline_runs(self, capsys):
        from repro.__main__ import main

        main([])
        out = capsys.readouterr().out
        assert "transversal" in out
        assert "days" in out

    def test_sections_run(self, capsys):
        from repro.__main__ import main

        main(["table1", "fig6b"])
        out = capsys.readouterr().out
        assert "site_spacing_um" in out

    def test_unknown_section_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["nope"])
