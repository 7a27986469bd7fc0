"""Distributional gate for the sparse noise sampler.

Bit-identity tests pin the packed sampler to the reference sampler, but
both draw through the same sparse kernel, so they cannot tell whether
that kernel samples the right distribution.  These tests can:

* the kernel (:func:`repro.sim.compiled.bernoulli_hits`) against the
  Bernoulli process it replaces -- hit counts, uniform positions, and the
  multi-block path;
* every noise channel sampled through the circuit sampler, against the
  channel's probabilities derived here from :mod:`repro.sim.ops` (hit
  frequency by a binomial test, outcome split by chi-squared), including
  repeated targets and p in {0, 1e-3, 0.5};
* the importance sampler at inflation 1 against the circuit sampler:
  detector marginals and logical failure rate, which checks the O(p^2)
  merged-DEM approximation the importance sampler rests on.

Seeds are fixed; every check uses a 1e-4 significance level, so a correct
sampler fails a given check with probability ~1e-4 per seed.
"""

import math

import numpy as np
import pytest
from scipy import stats

from repro.decoder.engine import DecodingEngine
from repro.estimator.rare import ImportanceSampler, rare_engine
from repro.noise.dem import extract_dem
from repro.sim.circuit import Circuit
from repro.sim.compiled import bernoulli_hits
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit
from repro.sim.ops import PAULI_1Q, PAULI_2Q

ALPHA = 1e-4


# -- the kernel -----------------------------------------------------------------


class TestBernoulliHits:
    @pytest.mark.parametrize("p", [1e-3, 0.05, 0.5])
    def test_counts_and_positions(self, p):
        rng = np.random.default_rng(7)
        n, calls = 5000, 400
        counts = []
        bins = np.zeros(10)
        for _ in range(calls):
            hits = bernoulli_hits(rng, n, p)
            assert hits.dtype == np.int64
            assert np.all(np.diff(hits) > 0)
            assert hits.size == 0 or (hits[0] >= 0 and hits[-1] < n)
            counts.append(hits.size)
            bins += np.bincount(hits * 10 // n, minlength=10)
        total = sum(counts)
        assert stats.binomtest(total, n * calls, p).pvalue > ALPHA
        # Hit positions are uniform over [0, n).
        assert stats.chisquare(bins).pvalue > ALPHA
        # Per-call counts are Binomial(n, p): variance n p (1 - p).
        dispersion = np.var(counts, ddof=1) * (calls - 1) / (n * p * (1 - p))
        assert stats.chi2.sf(dispersion, calls - 1) > ALPHA / 2
        assert stats.chi2.cdf(dispersion, calls - 1) > ALPHA / 2

    def test_degenerate_rates(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert bernoulli_hits(rng, 100, 0.0).size == 0
        assert bernoulli_hits(rng, 0, 0.3).size == 0
        np.testing.assert_array_equal(
            bernoulli_hits(rng, 5, 1.0), np.arange(5)
        )
        assert rng.bit_generator.state == state  # nothing was drawn

    def test_block_refill(self):
        # A generator whose gaps are all 1 hits every trial, so the first
        # block (sized for ~n p hits) runs out and the loop must refill
        # until [0, n) is covered, without gaps or repeats.
        class UnitGaps:
            def geometric(self, p, size):
                return np.ones(size, dtype=np.int64)

        np.testing.assert_array_equal(
            bernoulli_hits(UnitGaps(), 1000, 1e-3), np.arange(1000)
        )


# -- every channel through the circuit sampler ----------------------------------


def _code_1q(x, z):
    return (x << 1) | z


PAULI_1Q_CODE = [_code_1q(x, z) for x, z in PAULI_1Q]  # X, Y, Z
PAULI_2Q_CODE = [
    (_code_1q(*a) << 2) | _code_1q(*b) for a, b in PAULI_2Q
]
PC1_WEIGHTS = np.array([0.5, 0.2, 0.3])
# Biased 15-outcome weights with two zero-probability outcomes.
PC2_WEIGHTS = np.array(
    [3, 0, 1, 2, 5, 1, 1, 4, 0, 2, 1, 1, 3, 2, 6], dtype=np.float64
)
PC2_WEIGHTS /= PC2_WEIGHTS.sum()

KINDS = (
    "X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1",
    "PAULI_CHANNEL_1", "DEPOLARIZE2", "PAULI_CHANNEL_2",
)


def channel_distribution(kind, p):
    """Outcome probabilities over Pauli codes for one channel application.

    One-qubit codes are ``(x << 1) | z``; two-qubit codes put the first
    qubit's code in the high two bits.
    """
    two = kind in ("DEPOLARIZE2", "PAULI_CHANNEL_2")
    dist = np.zeros(16 if two else 4)
    if kind in ("X_ERROR", "Y_ERROR", "Z_ERROR"):
        dist[PAULI_1Q_CODE["XYZ".index(kind[0])]] = p
    elif kind == "DEPOLARIZE1":
        dist[PAULI_1Q_CODE] = p / 3
    elif kind == "PAULI_CHANNEL_1":
        dist[PAULI_1Q_CODE] = p * PC1_WEIGHTS
    elif kind == "DEPOLARIZE2":
        dist[PAULI_2Q_CODE] = p / 15
    else:
        dist[PAULI_2Q_CODE] = p * PC2_WEIGHTS
    dist[0] = 1.0 - dist.sum()
    return dist


def xor_convolve(a, b):
    """Distribution of the product of two independent Pauli draws."""
    out = np.zeros_like(a)
    for i in range(a.size):
        for j in range(b.size):
            out[i ^ j] += a[i] * b[j]
    return out


def sample_outcomes(kind, p, shots, seed):
    """Sample the channel on two single units and one repeated unit.

    Returns ``(single, repeated)`` outcome-code arrays: ``single`` has
    ``2 * shots`` outcomes of one channel application each, ``repeated``
    has ``shots`` outcomes of a unit the op lists twice.
    """
    circuit = Circuit()
    two = kind in ("DEPOLARIZE2", "PAULI_CHANNEL_2")
    if two:
        qubits = 6
        targets = [0, 1, 2, 3, 4, 5, 4, 5]
    else:
        qubits = 3
        targets = [0, 1, 2, 2]
    if kind == "PAULI_CHANNEL_1":
        circuit.pauli_channel_1(targets, *(p * PC1_WEIGHTS))
    elif kind == "PAULI_CHANNEL_2":
        circuit.pauli_channel_2(targets, list(p * PC2_WEIGHTS))
    else:
        circuit.append(kind, tuple(targets), p)
    circuit.measure(*range(qubits))
    circuit.measure_x(*range(qubits))
    for record in range(2 * qubits):
        circuit.detector([record])
    keys, _ = FrameSimulator(circuit).sample_packed(
        shots, rng=np.random.default_rng(seed)
    )
    bits = np.unpackbits(keys, axis=1, count=2 * qubits).astype(np.int64)
    code = _code_1q(bits[:, :qubits], bits[:, qubits:])
    if two:
        code = (code[:, 0::2] << 2) | code[:, 1::2]
    return code[:, :2].ravel(), code[:, 2]


def assert_matches(observed_codes, expected):
    observed = np.bincount(observed_codes, minlength=expected.size)
    impossible = expected == 0
    assert not observed[impossible].any(), "zero-probability outcome drawn"
    if np.count_nonzero(~impossible) == 1:
        return  # a single possible outcome: nothing left to split
    expected_counts = expected[~impossible] * observed.sum()
    assert stats.chisquare(
        observed[~impossible], expected_counts
    ).pvalue > ALPHA


class TestChannels:
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_probability_never_fires(self, kind):
        single, repeated = sample_outcomes(kind, 0.0, 1000, seed=1)
        assert not single.any() and not repeated.any()

    @pytest.mark.parametrize("p,shots", [(1e-3, 200_000), (0.5, 20_000)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_hit_rate_and_outcome_split(self, kind, p, shots):
        seed = 100 + KINDS.index(kind) + (0 if p < 0.1 else 50)
        single, repeated = sample_outcomes(kind, p, shots, seed)
        dist = channel_distribution(kind, p)
        # Hit frequency: a single unit fires with the channel's total rate.
        hits = int(np.count_nonzero(single))
        assert stats.binomtest(hits, single.size, p).pvalue > ALPHA
        # Outcome split among the hits.
        fired = single[single != 0]
        conditional = dist.copy()
        conditional[0] = 0.0
        assert_matches(fired, conditional / conditional.sum())
        # A unit listed twice composes two independent draws.
        assert_matches(repeated, xor_convolve(dist, dist))


# -- importance sampler at inflation 1 vs the circuit sampler -------------------


def assert_marginals_agree(circuit, shots, seed):
    """Detector marginals of the circuit sampler vs the merged DEM."""
    dem = extract_dem(circuit)
    sampler = ImportanceSampler(dem, inflation=1.0)
    nd = circuit.num_detectors
    circuit_keys, _ = FrameSimulator(circuit).sample_packed(
        shots, rng=np.random.default_rng(seed)
    )
    dem_keys, _, log_weights = sampler.sample_weighted(
        shots, np.random.default_rng(seed + 1)
    )
    assert np.all(log_weights == 0.0)  # q == p: every weight is 1
    a = np.unpackbits(circuit_keys, axis=1, count=nd).sum(axis=0, dtype=float)
    b = np.unpackbits(dem_keys, axis=1, count=nd).sum(axis=0, dtype=float)
    pooled = (a + b) / (2.0 * shots)
    live = pooled > 0
    z = (a - b)[live] / np.sqrt(2.0 * shots * pooled * (1 - pooled))[live]
    assert live.sum() > 0.9 * nd
    assert np.abs(z).max() < stats.norm.isf(ALPHA / (2 * live.sum()))
    assert stats.chi2.sf(np.sum(z * z), live.sum()) > ALPHA


def assert_failure_rates_agree(circuit, shots, seed):
    """Logical failure rate: circuit sampler vs DEM sampler, union-find."""
    with DecodingEngine(circuit, "union_find", shard_shots=4096) as engine:
        brute = engine.run(shots, seed=seed)
    with rare_engine(
        circuit, "union_find", inflation=1.0, shard_shots=4096
    ) as engine:
        weighted = engine.run(shots, seed=seed + 1)
    assert brute.failures > 50 and weighted.failures > 50
    sigma = math.hypot(brute.std_error, weighted.std_error)
    assert abs(weighted.weighted_rate - brute.rate) <= 3.0 * sigma


class TestMergedDemApproximation:
    @pytest.mark.parametrize("distance", [3, 5])
    def test_detector_marginals(self, distance):
        circuit = memory_circuit(distance, distance, 1e-3)
        assert_marginals_agree(circuit, 100_000, seed=40 + distance)

    @pytest.mark.parametrize(
        "distance,p,shots", [(3, 5e-3, 20_000), (5, 3e-3, 12_000)]
    )
    def test_failure_rate(self, distance, p, shots):
        circuit = memory_circuit(distance, 3, p)
        assert_failure_rates_agree(circuit, shots, seed=60 + distance)

    @pytest.mark.slow
    def test_d7(self):
        circuit = memory_circuit(7, 7, 1e-3)
        assert_marginals_agree(circuit, 100_000, seed=47)
        assert_failure_rates_agree(
            memory_circuit(7, 7, 5e-3), 20_000, seed=67
        )
