"""Property tests for the periodic round-compiler and periodic DEM path.

The hard invariant: everything the periodic path produces must be
*bit-identical* to the linear compiler per seed -- the replayed round
body with fused RNG draws yields the same packed planes, and the
periodically-unrolled DEM equals the linear extraction mechanism for
mechanism (exact floats, post-``merged()``).  Fallback circuits (random
Clifford soups, transversal gadgets, single-round experiments) must land
on the linear compiler unchanged.
"""

import numpy as np
import pytest
from oracles import (
    linear_dem,
    periodic_dem,
    periodic_program,
    pin_program,
    reference_sample,
)

from test_sim_compiled import random_clifford_noise_circuit

from repro.analysis import verify_dem
from repro.core.cache import cache_stats, clear_caches
from repro.noise.dem import extract_dem
from repro.sim.circuit import Circuit
from repro.sim.compiled import CompiledProgram
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit, transversal_cnot_experiment
from repro.sim.periodic import (
    PeriodicProgram,
    circuit_fingerprint,
    compile_program,
    detect_period,
)

NOISE_MODELS = (None, "biased_pauli", "movement_aware")

# Programs are rebuilt per compile over the fault table, memoized here.
CACHE_KEY = "repro.noise.dem.circuit_faults"


def build_memory(distance, rounds, noise, basis="Z", p=1e-3):
    kwargs = {"basis": basis}
    if noise is not None:
        kwargs["noise"] = noise
    return memory_circuit(distance, rounds, p, **kwargs)


def assert_periodic_matches_linear(circuit, shots_list=(0, 1, 7, 64, 200)):
    """Forced-periodic and forced-linear programs agree bit for bit."""
    assert detect_period(circuit) is not None, "expected a detectable period"
    linear = CompiledProgram(circuit)
    periodic = periodic_program(circuit)
    for shots in shots_list:
        for seed in (0, 1234):
            det_lin, obs_lin = linear.run_packed(shots, np.random.default_rng(seed))
            det_per, obs_per = periodic.run_packed(shots, np.random.default_rng(seed))
            np.testing.assert_array_equal(det_lin, det_per)
            np.testing.assert_array_equal(obs_lin, obs_per)


# Circuits whose extracted DEM is held to the byte-per-bit oracle: every
# fallback reason of the periodic extraction and both of its outcomes.
DEM_ORACLE_CIRCUITS = (
    [
        pytest.param(
            lambda d=d, basis=basis: transversal_cnot_experiment(
                d, 4, 1e-3, [2], basis=basis
            ).circuit,
            id=f"transversal_cnot-d{d}-{basis}",
        )
        for d in (3, 5)
        for basis in ("Z", "X")
    ]
    + [
        pytest.param(lambda: build_memory(5, 4, None), id="few_reps-d5"),
        pytest.param(
            lambda: build_memory(3, 3, "biased_pauli"), id="biased-few_reps"
        ),
        pytest.param(
            lambda: build_memory(3, 7, "biased_pauli", basis="X"),
            id="biased-periodic",
        ),
        pytest.param(lambda: build_memory(3, 3, None).without_noise(),
                     id="noiseless"),
    ]
    + [
        pytest.param(
            lambda seed=seed: random_clifford_noise_circuit(
                np.random.default_rng(seed)
            ),
            id=f"random_clifford-{seed}",
        )
        for seed in range(6)
    ]
)


class TestPeriodDetection:
    def test_memory_circuit_spec(self):
        # Round 1 emits only the memory-basis detectors, so it belongs to
        # the prologue: the body covers rounds 2..r.
        circuit = build_memory(3, 6, None)
        spec = detect_period(circuit)
        assert spec is not None
        assert spec.reps == 5
        assert spec.meas_per_rep == 8  # one measurement per ancilla
        assert spec.det_per_rep == 8  # full detector layer per round
        assert spec.meas_start == 8
        assert spec.det_start == 4  # round 1: memory-basis detectors only
        assert spec.savings == (spec.reps - 1) * spec.length

    @pytest.mark.parametrize("noise", NOISE_MODELS)
    def test_all_noise_models_detect_same_geometry(self, noise):
        spec = detect_period(build_memory(3, 5, noise))
        assert spec is not None
        assert (spec.reps, spec.meas_per_rep, spec.det_per_rep) == (4, 8, 8)

    def test_single_round_has_no_period(self):
        assert detect_period(build_memory(3, 1, None)) is None

    def test_aperiodic_circuit_has_no_period(self):
        circuit = (
            Circuit().reset(0, 1).h(0).cx(0, 1).s(1).measure(0, 1)
        )
        assert detect_period(circuit) is None

    def test_compile_modes(self):
        circuit = build_memory(3, 6, None)
        assert isinstance(compile_program(circuit), PeriodicProgram)
        single_round = build_memory(3, 1, None)
        assert isinstance(compile_program(single_round), CompiledProgram)

    def test_periodic_mode_raises_without_period(self):
        circuit = Circuit().reset(0).h(0).measure(0)
        with pytest.raises(ValueError, match="repeated round"):
            periodic_program(circuit)
        assert isinstance(compile_program(circuit), CompiledProgram)

    def test_random_circuits_fall_back_or_stay_identical(self):
        # Random soups usually have no period; when a small one is found
        # anyway, the periodic program must still be bit-identical.
        rng = np.random.default_rng(7)
        fallbacks = 0
        for _ in range(10):
            circuit = random_clifford_noise_circuit(rng)
            if detect_period(circuit) is None:
                fallbacks += 1
                assert isinstance(
                    compile_program(circuit), CompiledProgram
                )
            else:
                assert_periodic_matches_linear(circuit, shots_list=(13, 64))
        assert fallbacks > 0

    def test_transversal_gadget_compiles_consistently(self):
        # Mid-circuit transversal CNOTs break the uniform round; whether a
        # (shorter) period survives or not, the compiled output must match.
        circuit = transversal_cnot_experiment(3, 4, 1e-3, [2]).circuit
        if detect_period(circuit) is None:
            assert isinstance(
                compile_program(circuit), CompiledProgram
            )
        else:
            assert_periodic_matches_linear(circuit, shots_list=(64,))


class TestBitIdentity:
    """sample_packed() via the periodic path == linear == reference."""

    @pytest.mark.parametrize("noise", NOISE_MODELS)
    @pytest.mark.parametrize(
        "distance,rounds,basis",
        [
            (3, 1, "Z"),
            (3, 2, "X"),
            (3, 3, "Z"),
            (3, 9, "X"),
            (5, 1, "X"),
            (5, 2, "Z"),
            (5, 5, "X"),
            (5, 15, "Z"),
        ],
    )
    def test_memory_matrix(self, distance, rounds, basis, noise):
        circuit = build_memory(distance, rounds, noise, basis=basis)
        if detect_period(circuit) is not None:
            assert_periodic_matches_linear(circuit, shots_list=(0, 1, 64, 200))
        # End-to-end through the auto path vs the byte-per-bit oracle.
        sim = FrameSimulator(circuit)
        det_ref, obs_ref = reference_sample(circuit, 40, np.random.default_rng(99))
        det_keys, obs_keys = sim.sample_packed(40, rng=np.random.default_rng(99))
        det = np.unpackbits(det_keys, axis=1, count=circuit.num_detectors)
        obs = np.unpackbits(obs_keys, axis=1, count=circuit.num_observables)
        np.testing.assert_array_equal(det_ref, det)
        np.testing.assert_array_equal(obs_ref, obs)

    @pytest.mark.slow
    @pytest.mark.parametrize("noise", NOISE_MODELS)
    @pytest.mark.parametrize("rounds", [2, 7, 21])
    def test_memory_d7(self, rounds, noise):
        circuit = build_memory(7, rounds, noise)
        if detect_period(circuit) is not None:
            assert_periodic_matches_linear(circuit, shots_list=(64, 1000))

    def test_zero_probability_noise(self):
        circuit = build_memory(3, 6, None, p=0.0)
        if detect_period(circuit) is not None:
            assert_periodic_matches_linear(circuit, shots_list=(64,))


class TestPeriodicDem:
    """Periodic extract_dem == linear extract_dem, mechanism for mechanism."""

    @pytest.mark.parametrize("noise", NOISE_MODELS)
    @pytest.mark.parametrize("distance,rounds", [(3, 6), (3, 9), (5, 10)])
    def test_exact_equality(self, distance, rounds, noise):
        circuit = build_memory(distance, rounds, noise)
        linear = linear_dem(circuit)
        periodic = periodic_dem(circuit)
        verify_dem(periodic)
        assert linear.num_detectors == periodic.num_detectors
        assert linear.num_observables == periodic.num_observables
        # Post-merged() models are sorted, so == is mechanism-for-mechanism
        # equality including exact probability floats.
        assert linear.mechanisms == periodic.mechanisms

    def test_auto_uses_periodic_and_matches(self):
        circuit = build_memory(3, 8, "biased_pauli")
        auto = extract_dem(circuit)
        linear = linear_dem(circuit)
        assert auto.periodic_fallback is None
        assert auto.mechanisms == linear.mechanisms

    def test_few_rounds_fall_back(self):
        circuit = build_memory(3, 3, None)
        with pytest.raises(ValueError, match="periodic"):
            periodic_dem(circuit)
        auto = extract_dem(circuit)
        linear = linear_dem(circuit)
        assert auto.periodic_fallback == "few_reps"
        assert auto.mechanisms == linear.mechanisms

    @pytest.mark.parametrize("build", DEM_ORACLE_CIRCUITS)
    def test_extract_dem_matches_linear_oracle(self, build):
        # Whichever path extract_dem takes (packed periodic unrolling or
        # packed whole-circuit propagation), the model equals the
        # byte-per-bit, row-per-mechanism reference propagation.
        circuit = build()
        assert extract_dem(circuit) == linear_dem(circuit)

    @pytest.mark.slow
    @pytest.mark.parametrize("noise", NOISE_MODELS)
    def test_exact_equality_d7(self, noise):
        circuit = build_memory(7, 8, noise)
        linear = linear_dem(circuit)
        periodic = periodic_dem(circuit)
        verify_dem(periodic)
        assert linear.mechanisms == periodic.mechanisms


class TestProgramCache:
    def test_fingerprint_is_content_keyed(self):
        a = build_memory(3, 4, None)
        b = build_memory(3, 4, None)
        c = build_memory(3, 5, None)
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        assert circuit_fingerprint(a) != circuit_fingerprint(c)

    def test_equal_circuits_share_programs(self):
        clear_caches()
        first = compile_program(build_memory(3, 6, None))
        hits, misses, size = cache_stats()[CACHE_KEY]
        assert (hits, misses, size) == (0, 1, 1)
        second = compile_program(build_memory(3, 6, None))
        assert second._faults is first._faults
        hits, misses, size = cache_stats()[CACHE_KEY]
        assert (hits, misses, size) == (1, 1, 1)

    def test_simulators_share_compiled_programs(self):
        clear_caches()
        circuit = build_memory(3, 6, "biased_pauli")
        sim_a = FrameSimulator(circuit)
        sim_b = FrameSimulator(build_memory(3, 6, "biased_pauli"))
        assert sim_a.compiled._faults is sim_b.compiled._faults
        assert sim_a.compiled is sim_a.compiled
        hits, _, _ = cache_stats()[CACHE_KEY]
        assert hits >= 1

    def test_clear_caches_empties_program_cache(self):
        compile_program(build_memory(3, 4, None))
        assert cache_stats()[CACHE_KEY][2] >= 1
        clear_caches()
        assert cache_stats()[CACHE_KEY] == (0, 0, 0)


class TestDemPeriodicityPass:
    def test_clean_memory_dem_passes(self):
        from repro.analysis import verify

        report = verify(
            build_memory(3, 8, None), passes=["dem_periodicity"], fail_on=None
        )
        assert not report.errors

    def test_too_few_rounds_is_info_skip(self):
        from repro.analysis import verify

        report = verify(
            build_memory(3, 3, None), passes=["dem_periodicity"], fail_on=None
        )
        severities = [d.severity for d in report.diagnostics]
        assert severities == ["info"]

    def test_reads_the_period_of_the_fault_table(self, monkeypatch):
        from repro.analysis import verify
        from repro.sim import periodic

        calls = []
        detect = periodic.detect_period

        def counted(circuit):
            calls.append(circuit)
            return detect(circuit)

        monkeypatch.setattr(periodic, "detect_period", counted)
        clear_caches()
        circuit = build_memory(3, 8, None)
        for _ in range(2):
            report = verify(circuit, passes=["dem_periodicity"], fail_on=None)
            assert not report.errors
        assert len(calls) == 1

    def test_off_by_one_rebase_is_flagged(self):
        from repro.analysis import check_dem_periodicity
        from repro.noise.dem import DetectorErrorModel, ErrorMechanism

        circuit = build_memory(3, 8, None)
        spec = detect_period(circuit)
        dem = extract_dem(circuit)
        corrupted = []
        target_row = spec.det_start + 3 * spec.det_per_rep
        for mech in dem.mechanisms:
            if mech.detectors and mech.detectors[0] == target_row:
                corrupted.append(ErrorMechanism(
                    mech.probability,
                    tuple(d + 1 for d in mech.detectors),
                    mech.observables,
                ))
            else:
                corrupted.append(mech)
        diags = check_dem_periodicity(
            DetectorErrorModel(corrupted, dem.num_detectors, dem.num_observables),
            prologue_detectors=spec.det_start,
            detectors_per_round=spec.det_per_rep,
            rounds=spec.reps,
        )
        assert any(d.severity == "error" for d in diags)

    def test_uncorrupted_blocks_pass_direct_check(self):
        from repro.analysis import check_dem_periodicity

        circuit = build_memory(3, 8, "movement_aware")
        spec = detect_period(circuit)
        diags = check_dem_periodicity(
            extract_dem(circuit),
            prologue_detectors=spec.det_start,
            detectors_per_round=spec.det_per_rep,
            rounds=spec.reps,
        )
        assert diags == []


class TestEngineIntegration:
    def test_engine_periodic_matches_linear_results(self):
        from repro.decoder.engine import DecodingEngine

        circuit = build_memory(3, 6, None)
        with DecodingEngine(circuit, "mwpm") as periodic:
            result_periodic = periodic.run(600, seed=5)
        with DecodingEngine(circuit, "mwpm") as linear:
            pin_program(linear._sim, CompiledProgram(circuit))
            result_linear = linear.run(600, seed=5)
        assert result_periodic == result_linear
        assert isinstance(periodic._sim.compiled, PeriodicProgram)
        assert isinstance(linear._sim.compiled, CompiledProgram)

    def test_run_until_reuses_cached_program(self):
        from repro.decoder.engine import DecodingEngine

        clear_caches()
        circuit = build_memory(3, 5, None)
        with DecodingEngine(circuit, "mwpm") as engine:
            program = engine._sim.compiled
            engine.run(200, seed=1)
            engine.run(200, seed=2)
            assert engine._sim.compiled is program
        _, misses, _ = cache_stats()[CACHE_KEY]
        assert misses == 1
