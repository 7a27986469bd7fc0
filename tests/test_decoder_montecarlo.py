"""Monte-Carlo decoding tests: suppression with distance, Eq. (4) behaviour.

These are the statistical anchors for the paper's Fig. 6(a): the memory
logical error shrinks with distance below threshold, transversal-CNOT
circuits decode at full distance with the sequential correlated decoder,
and the fitted model constants are sensible.  Shot counts are kept modest;
assertions use generous margins.
"""

import numpy as np
import pytest

from repro.decoder.analysis import (
    cnot_experiment_rate,
    fit_alpha,
    fit_memory_model,
    memory_logical_error,
    per_round_rate,
)
from repro.decoder.sequential import SequentialCNOTDecoder
from repro.sim.frame import FrameSimulator
from repro.sim.memory import transversal_cnot_experiment


@pytest.fixture(scope="module")
def memory_rates():
    """Shared memory MC results at p = 0.003."""
    out = {}
    for d, rounds, shots in [(3, 4, 3000), (5, 6, 1500)]:
        res = memory_logical_error(d, rounds, 0.003, shots, seed=11)
        out[d] = per_round_rate(res, rounds)
    return out


class TestMemoryMonteCarlo:
    def test_distance_suppresses_error(self, memory_rates):
        assert memory_rates[5] < memory_rates[3] / 2

    def test_noiseless_never_fails(self):
        res = memory_logical_error(3, 3, 0.0, 50, seed=0)
        assert res.failures == 0

    def test_rate_increases_with_p(self):
        low = memory_logical_error(3, 3, 0.001, 1500, seed=3)
        high = memory_logical_error(3, 3, 0.008, 1500, seed=3)
        assert high.rate > low.rate

    def test_memory_fit_constants(self, memory_rates):
        fit = fit_memory_model([3, 5], [memory_rates[3], memory_rates[5]])
        # MWPM at p = 0.003: suppression factor well above 1, prefactor O(0.1).
        assert fit.lam > 2.0
        assert 1e-3 < fit.prefactor_c < 3.0

    def test_std_error_reported(self):
        res = memory_logical_error(3, 3, 0.005, 500, seed=5)
        assert 0 <= res.std_error < 0.1


class TestTransversalCnotMonteCarlo:
    def test_sequential_decoder_full_distance(self):
        # Per-CNOT error must drop from d=3 to d=5 (the broken-decoder
        # signature is flat or rising rates).
        res3, n3 = cnot_experiment_rate(3, 6, 0.003, 1, 1200, seed=13)
        res5, n5 = cnot_experiment_rate(5, 6, 0.003, 1, 700, seed=13)
        assert n3 == n5 == 5
        assert res5.rate / n5 < res3.rate / n3

    def test_amortization_over_cnot_density(self):
        # Eq. (4): per-CNOT cost shrinks as x grows (SE cost amortized).
        dense, n_dense = cnot_experiment_rate(3, 6, 0.003, 1, 1200, seed=17)
        sparse, n_sparse = cnot_experiment_rate(3, 6, 0.003, 3, 1200, seed=17)
        assert dense.rate / n_dense < sparse.rate / n_sparse

    def test_joint_decoder_is_weaker(self):
        seq, n = cnot_experiment_rate(5, 6, 0.003, 1, 500, seed=19)
        joint, _ = cnot_experiment_rate(5, 6, 0.003, 1, 500, seed=19, decoder="mwpm")
        assert seq.failures <= joint.failures

    def test_sequential_decoder_noiseless(self):
        builder = transversal_cnot_experiment(3, 4, 0.0, [1, 2])
        sim = FrameSimulator(builder.circuit, rng=np.random.default_rng(0))
        # DEM of a noiseless circuit is empty; decoder still runs.
        dem = sim.detector_error_model()
        decoder = SequentialCNOTDecoder(dem, builder.detector_meta)
        dets, obs = sim.sample(16)
        assert not decoder.decode_batch(dets).any()
        assert not obs.any()

    def test_metadata_mismatch_rejected(self):
        builder = transversal_cnot_experiment(3, 4, 1e-3, [1])
        dem = FrameSimulator(builder.circuit).detector_error_model()
        with pytest.raises(ValueError):
            SequentialCNOTDecoder(dem, builder.detector_meta[:-1])


class TestAlphaFit:
    def test_alpha_fit_positive_and_finite(self, memory_rates):
        fit = fit_memory_model([3, 5], [memory_rates[3], memory_rates[5]])
        data = []
        for d, shots in [(3, 1200), (5, 700)]:
            for every in (1, 2):
                res, n = cnot_experiment_rate(d, 6, 0.003, every, shots, seed=23)
                if res.failures == 0:
                    continue
                data.append((d, 1.0 / every, res.rate / n))
        assert len(data) >= 3
        alpha_fit = fit_alpha(data, fit.prefactor_c, fit.lam)
        # The decoding factor is decoder-dependent (paper Fig. 13(a)); the
        # fit must converge to a finite non-negative value with bounded
        # log-residual at these shot counts.
        assert 0.0 <= alpha_fit.alpha < 20.0
        assert alpha_fit.residual < 20.0
        assert 1e-4 < alpha_fit.prefactor_c < 10.0

    def test_fit_recovers_synthetic_alpha(self):
        # Generate exact Eq. (4) data and check the fit recovers alpha.
        from repro.decoder.analysis import eq4_prediction

        alpha_true, c, lam = 0.4, 0.1, 10.0
        data = [
            (d, x, eq4_prediction(d, x, c, lam, alpha_true))
            for d in (9, 13, 17)
            for x in (0.25, 0.5, 1.0, 2.0)
        ]
        fit = fit_alpha(data, c, lam)
        assert fit.alpha == pytest.approx(alpha_true, rel=0.05)
        assert fit.residual < 1e-6


class TestDecoderTradeoff:
    def test_paired_and_engine_branches_agree(self):
        # The trade-off decodes collect()'s shots once per decoder; each
        # count equals that decoder's own engine run with a fresh equal
        # seed, including the shard count collect drew.
        from repro.decoder.engine import DecodingEngine, EngineResult, make_decoder
        from repro.experiments.fig13 import decoder_tradeoff_monte_carlo
        from repro.sim.memory import memory_circuit

        paired = decoder_tradeoff_monte_carlo(
            distance=3, rounds=3, p=0.004, shots=1500, seed=41
        )
        assert list(paired) == ["mwpm", "mwpm_uniform", "union_find"]
        circuit = memory_circuit(3, 3, 0.004)
        dem = FrameSimulator(circuit).detector_error_model()
        for name, result in paired.items():
            assert isinstance(result, EngineResult)
            assert (result.shots, result.shards) == (1500, 2)
            with DecodingEngine(circuit, make_decoder(name, dem)) as engine:
                own = engine.run(1500, seed=np.random.SeedSequence(41))
            assert (result.failures, result.shards) == (own.failures, own.shards)
        # On identical shots union-find should not beat MWPM by more than
        # tie-breaking noise (MWPM is min-weight, not per-shot optimal).
        assert paired["union_find"].failures >= paired["mwpm"].failures - 3
