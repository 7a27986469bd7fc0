"""Tests for the tableau simulator and the Pauli-frame sampler."""

import numpy as np
import pytest

from repro.sim.circuit import Circuit
from repro.sim.frame import FrameSimulator
from repro.sim.statevector import StateVector
from repro.sim.tableau import TableauSimulator


class TestTableau:
    def test_deterministic_zero(self):
        sim = TableauSimulator(1)
        assert sim.measure(0) == 0

    def test_x_flips_outcome(self):
        sim = TableauSimulator(1)
        sim.x_gate(0)
        assert sim.measure(0) == 1

    def test_plus_state_random_then_repeatable(self):
        sim = TableauSimulator(1, rng=np.random.default_rng(0))
        sim.h(0)
        first = sim.measure(0)
        assert sim.measure(0) == first  # collapsed

    def test_bell_correlations(self):
        for seed in range(5):
            sim = TableauSimulator(2, rng=np.random.default_rng(seed))
            sim.h(0)
            sim.cx(0, 1)
            assert sim.measure(0) == sim.measure(1)

    def test_ghz_parity(self):
        # X-basis parity of a GHZ state is +1: XOR of MX outcomes is 0.
        for seed in range(5):
            sim = TableauSimulator(3, rng=np.random.default_rng(seed))
            sim.h(0)
            sim.cx(0, 1)
            sim.cx(1, 2)
            outcomes = [sim.measure_x(q) for q in range(3)]
            assert sum(outcomes) % 2 == 0

    def test_s_gate_via_y_basis(self):
        # S|+> = |+i>, measuring X is then random, but (S)^2|+> = Z|+> = |->.
        sim = TableauSimulator(1)
        sim.h(0)
        sim.s(0)
        sim.s(0)
        assert sim.measure_x(0) == 1

    def test_expectation_of_stabilizers(self):
        sim = TableauSimulator(2)
        sim.h(0)
        sim.cx(0, 1)
        # Bell state: XX and ZZ stabilizers, XZ not an eigen-operator.
        assert sim.expectation(np.array([1, 1]), np.array([0, 0])) == 0
        assert sim.expectation(np.array([0, 0]), np.array([1, 1])) == 0
        assert sim.expectation(np.array([1, 0]), np.array([0, 1])) is None

    def test_expectation_sign(self):
        sim = TableauSimulator(1)
        sim.x_gate(0)
        assert sim.expectation(np.array([0]), np.array([1])) == 1  # <Z> = -1

    def test_forced_deterministic_mismatch_raises(self):
        sim = TableauSimulator(1)
        with pytest.raises(ValueError):
            sim.measure(0, forced=1)

    def test_reset_after_entangling(self):
        sim = TableauSimulator(2, rng=np.random.default_rng(1))
        sim.h(0)
        sim.cx(0, 1)
        sim.reset(0)
        assert sim.measure(0) == 0

    def test_cz_matches_statevector(self):
        circuit = Circuit().h(0).h(1).cz(0, 1).h(1).measure(0, 1)
        for seed in range(4):
            tab = TableauSimulator(2, rng=np.random.default_rng(seed))
            tab.run(circuit)
            # CZ sandwiched in H on target = CX: outcomes must correlate.
            assert tab.record[0] == tab.record[1]

    def test_random_clifford_agreement_with_statevector(self):
        # Cross-check measurement distributions on a random Clifford circuit.
        rng = np.random.default_rng(7)
        circuit = Circuit()
        for _ in range(30):
            kind = rng.integers(0, 4)
            if kind == 0:
                circuit.h(int(rng.integers(0, 4)))
            elif kind == 1:
                circuit.s(int(rng.integers(0, 4)))
            elif kind == 2:
                a, b = rng.choice(4, size=2, replace=False)
                circuit.cx(int(a), int(b))
            else:
                a, b = rng.choice(4, size=2, replace=False)
                circuit.cz(int(a), int(b))
        circuit.measure(0, 1, 2, 3)
        tab_counts = np.zeros(16)
        sv_counts = np.zeros(16)
        shots = 300
        for seed in range(shots):
            tab = TableauSimulator(4, rng=np.random.default_rng(seed))
            tab.run(circuit)
            tab_counts[int("".join(map(str, tab.record)), 2)] += 1
            sv = StateVector(4, rng=np.random.default_rng(seed + 10_000))
            sv.run(circuit)
            sv_counts[int("".join(map(str, sv.record)), 2)] += 1
        # Same support and similar frequencies.
        assert set(np.flatnonzero(tab_counts)) == set(np.flatnonzero(sv_counts))
        for idx in np.flatnonzero(tab_counts):
            assert abs(tab_counts[idx] - sv_counts[idx]) / shots < 0.15

    def test_copies_of_equally_seeded_simulators_measure_alike(self):
        def copied_record(seed):
            tab = TableauSimulator(8, rng=np.random.default_rng(seed))
            for q in range(8):
                tab.h(q)
            tab.measure(0)
            dup = tab.copy()
            # Every remaining outcome is random: each qubit is in |+>.
            return [dup.measure(q) for q in range(1, 8)], dup.record

        first, second = copied_record(5), copied_record(5)
        assert first == second
        assert len({tuple(copied_record(s)[0]) for s in range(6)}) > 1


class TestFrameSimulator:
    def test_no_noise_no_flips(self):
        circuit = Circuit().h(0).cx(0, 1).measure(0, 1).detector([0, 1])
        dets, _ = FrameSimulator(circuit).sample(64)
        assert not dets.any()

    def test_certain_x_error_flips_measurement(self):
        circuit = Circuit().x_error([0], 1.0).measure(0).detector([0])
        dets, _ = FrameSimulator(circuit).sample(16)
        assert dets.all()

    def test_z_error_invisible_to_z_measurement(self):
        circuit = Circuit().z_error([0], 1.0).measure(0).detector([0])
        dets, _ = FrameSimulator(circuit).sample(16)
        assert not dets.any()

    def test_z_error_flips_x_measurement(self):
        circuit = Circuit().z_error([0], 1.0).measure_x(0).detector([0])
        dets, _ = FrameSimulator(circuit).sample(16)
        assert dets.all()

    def test_error_propagates_through_cx(self):
        # X on control spreads to target.
        circuit = (
            Circuit().x_error([0], 1.0).cx(0, 1).measure(1).detector([0])
        )
        dets, _ = FrameSimulator(circuit).sample(8)
        assert dets.all()

    def test_reset_clears_frame(self):
        circuit = Circuit().x_error([0], 1.0).reset(0).measure(0).detector([0])
        dets, _ = FrameSimulator(circuit).sample(8)
        assert not dets.any()

    def test_observable_tracking(self):
        circuit = Circuit().x_error([0], 1.0).measure(0).observable_include(0, [0])
        _, obs = FrameSimulator(circuit).sample(8)
        assert obs.all()

    def test_sampled_rate_matches_probability(self):
        circuit = Circuit().x_error([0], 0.3).measure(0).detector([0])
        dets, _ = FrameSimulator(circuit, rng=np.random.default_rng(5)).sample(20000)
        assert abs(dets.mean() - 0.3) < 0.02

    def test_depolarize1_marginals(self):
        # X-flip marginal of depolarize(p) is 2p/3.
        circuit = Circuit().depolarize1([0], 0.3).measure(0).detector([0])
        dets, _ = FrameSimulator(circuit, rng=np.random.default_rng(6)).sample(20000)
        assert abs(dets.mean() - 0.2) < 0.02

    def test_dem_mechanism_of_simple_circuit(self):
        circuit = Circuit().x_error([0], 0.25).measure(0).detector([0]).observable_include(0, [0])
        dem = FrameSimulator(circuit).detector_error_model()
        assert len(dem.mechanisms) == 1
        mech = dem.mechanisms[0]
        assert mech.detectors == (0,)
        assert mech.observables == (0,)
        assert mech.probability == pytest.approx(0.25)

    def test_dem_merges_identical_mechanisms(self):
        circuit = (
            Circuit()
            .x_error([0], 0.1)
            .x_error([0], 0.1)
            .measure(0)
            .detector([0])
        )
        dem = FrameSimulator(circuit).detector_error_model()
        assert len(dem.mechanisms) == 1
        # 0.1*(1-0.1)+0.1*(1-0.1) = 0.18
        assert dem.mechanisms[0].probability == pytest.approx(0.18)

    def test_dem_depolarize2_splits_into_distinct_symptoms(self):
        circuit = (
            Circuit().depolarize2([0, 1], 0.15).measure(0, 1).detector([0]).detector([1])
        )
        dem = FrameSimulator(circuit).detector_error_model()
        symptoms = {m.detectors for m in dem.mechanisms}
        assert symptoms == {(0,), (1,), (0, 1)}
