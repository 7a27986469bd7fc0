"""Tests for the circuit IR and the dense state-vector simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.circuit import ANNOTATIONS, Circuit, Operation
from repro.sim.statevector import StateVector, ccz_state


class TestCircuitIR:
    def test_builder_chaining(self):
        c = Circuit().h(0).cx(0, 1).measure(0, 1)
        assert len(c) == 3
        assert c.num_qubits == 2
        assert c.num_measurements == 2

    def test_num_qubits_matches_a_rescan_of_every_op(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c = Circuit()
            for _ in range(int(rng.integers(0, 12))):
                q = int(rng.integers(0, 30))
                kind = int(rng.integers(0, 5))
                if kind == 0:
                    c.h(q)
                elif kind == 1:
                    c.cx(q, q + int(rng.integers(1, 4)))
                elif kind == 2:
                    c.depolarize1([q], 0.01)
                elif kind == 3:
                    c.tick()
                else:
                    c.measure(q).detector([c.num_measurements - 1])
            rescan = 1 + max(
                (t for op in c.operations if op.name not in ANNOTATIONS
                 for t in op.targets),
                default=-1,
            )
            assert c.num_qubits == rescan

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Operation("FOO", (0,))

    def test_noise_probability_validated(self):
        with pytest.raises(ValueError):
            Operation("X_ERROR", (0,), 1.5)

    def test_pair_arity_validated(self):
        with pytest.raises(ValueError):
            Operation("CX", (0, 1, 2))

    def test_triple_arity_validated(self):
        with pytest.raises(ValueError):
            Operation("CCZ", (0, 1))

    def test_counters(self):
        c = Circuit().cx(0, 1, 1, 2).h(0).ccz(0, 1, 2)
        assert c.count("CX") == 2
        assert c.count("H") == 1
        assert c.count("CCZ") == 1

    def test_detector_and_observable_counts(self):
        c = Circuit().measure(0).detector([0]).observable_include(0, [0])
        assert c.num_detectors == 1
        assert c.num_observables == 1

    def test_without_noise(self):
        c = Circuit().h(0).depolarize1([0], 0.01).measure(0)
        clean = c.without_noise()
        assert len(clean) == 2
        assert len(c) == 3

    def test_iadd_concatenates(self):
        a = Circuit().h(0)
        b = Circuit().measure(0)
        a += b
        assert len(a) == 2
        assert a.num_measurements == 1
        a += a
        assert len(a) == 4
        assert a.num_measurements == 2


class TestRecordReferenceValidation:
    """append() rejects record references that don't resolve yet."""

    def test_detector_forward_reference_rejected(self):
        c = Circuit().reset(0).measure(0)
        with pytest.raises(ValueError, match=r"record 1.*\[0, 1\)"):
            c.detector([1])

    def test_detector_negative_reference_rejected(self):
        c = Circuit().reset(0).measure(0)
        with pytest.raises(ValueError, match="record -1"):
            c.detector([-1])

    def test_detector_before_any_measurement_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 0\)"):
            Circuit().detector([0])

    def test_observable_forward_reference_rejected(self):
        c = Circuit().reset(0).measure(0)
        with pytest.raises(ValueError, match="record 3"):
            c.observable_include(0, [0, 3])

    def test_observable_negative_reference_rejected(self):
        c = Circuit().reset(0).measure(0)
        with pytest.raises(ValueError, match="record -2"):
            c.observable_include(0, [-2])

    def test_rejected_append_leaves_circuit_unchanged(self):
        c = Circuit().reset(0).measure(0)
        before = len(c)
        with pytest.raises(ValueError):
            c.detector([5])
        assert len(c) == before

    def test_empty_record_lists_are_allowed(self):
        # Degenerate but legal: a constant detector / empty observable.
        c = Circuit().detector([]).observable_include(0, [])
        assert c.num_detectors == 1
        assert c.num_observables == 1

    def test_boundary_record_accepted(self):
        c = Circuit().reset(0, 1).measure(0, 1)
        c.detector([0, 1])  # both in range: no raise
        assert c.num_detectors == 1


class TestStateVector:
    def test_initial_state(self):
        sv = StateVector(2)
        assert sv.amplitudes[0] == pytest.approx(1.0)

    def test_h_makes_plus(self):
        sv = StateVector(1)
        sv.run(Circuit().h(0))
        assert np.allclose(sv.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_bell_state(self):
        sv = StateVector(2)
        sv.run(Circuit().h(0).cx(0, 1))
        assert sv.probability_of_one(0) == pytest.approx(0.5)
        assert abs(sv.amplitudes[1]) < 1e-12  # |01> amplitude zero
        assert abs(sv.amplitudes[2]) < 1e-12

    def test_measure_collapses_bell(self):
        sv = StateVector(2, rng=np.random.default_rng(3))
        sv.run(Circuit().h(0).cx(0, 1))
        a = sv.measure(0)
        b = sv.measure(1)
        assert a == b

    def test_forced_measurement_postselects(self):
        sv = StateVector(1)
        sv.run(Circuit().h(0))
        out = sv.measure(0, forced=1)
        assert out == 1
        assert abs(sv.amplitudes[1]) == pytest.approx(1.0)

    def test_forcing_impossible_outcome_raises(self):
        sv = StateVector(1)
        with pytest.raises(ValueError):
            sv.measure(0, forced=1)

    def test_t_gate_phase(self):
        sv = StateVector(1)
        sv.run(Circuit().h(0).t(0).t(0).t(0).t(0))  # T^4 = Z
        ref = StateVector(1)
        ref.run(Circuit().h(0).z(0))
        assert sv.fidelity_with(ref) == pytest.approx(1.0)

    def test_t_tdag_cancel(self):
        sv = StateVector(1)
        sv.run(Circuit().h(0).t(0).t_dag(0))
        ref = StateVector(1)
        ref.run(Circuit().h(0))
        assert sv.fidelity_with(ref) == pytest.approx(1.0)

    def test_ccz_phase_only_on_111(self):
        sv = StateVector(3)
        sv.run(Circuit().x(0).x(1).x(2).ccz(0, 1, 2))
        assert sv.amplitudes[7] == pytest.approx(-1.0)
        sv2 = StateVector(3)
        sv2.run(Circuit().x(0).x(1).ccz(0, 1, 2))
        assert sv2.amplitudes[3] == pytest.approx(1.0)

    def test_ccx_is_toffoli(self):
        sv = StateVector(3)
        sv.run(Circuit().x(0).x(1).ccx(0, 1, 2))
        assert abs(sv.amplitudes[7]) == pytest.approx(1.0)

    def test_swap(self):
        sv = StateVector(2)
        sv.run(Circuit().x(0).swap(0, 1))
        assert abs(sv.amplitudes[2]) == pytest.approx(1.0)

    def test_ccz_state_is_equal_superposition_with_sign(self):
        sv = ccz_state()
        for idx in range(8):
            expected = -1.0 if idx == 7 else 1.0
            assert sv.amplitudes[idx] * math.sqrt(8) == pytest.approx(expected)

    def test_reset_mid_circuit(self):
        sv = StateVector(1, rng=np.random.default_rng(0))
        sv.run(Circuit().x(0).reset(0))
        assert abs(sv.amplitudes[0]) == pytest.approx(1.0)

    def test_noise_op_rejected(self):
        sv = StateVector(1)
        with pytest.raises(ValueError):
            sv.run(Circuit().depolarize1([0], 0.1))

    @given(st.integers(0, 7))
    @settings(max_examples=8)
    def test_basis_state_prep(self, value):
        c = Circuit()
        for q in range(3):
            if (value >> q) & 1:
                c.x(q)
        sv = StateVector(3)
        sv.run(c)
        assert abs(sv.amplitudes[value]) == pytest.approx(1.0)
