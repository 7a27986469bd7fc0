"""Property tests for the compiled bit-packed frame pipeline.

The byte-per-bit interpreter (``oracles.reference_sample``) is the
reference: for the same seed, the compiled packed pipeline and its
unpacked form (:meth:`FrameSimulator.sample`) must reproduce its detector
and observable tables *bit for bit* -- across every op type
(including the SWAP/CZ/MX/DEPOLARIZE2 edge paths), fused-gate runs,
duplicate targets, and awkward shot counts.  A tableau simulator
cross-check pins the compiled program's gate semantics against an
independent implementation.
"""

import numpy as np
import pytest
from oracles import reference_sample

from repro.sim.circuit import Circuit
from repro.sim.compiled import CompiledProgram, lower_ops, transpose_packed
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit, transversal_cnot_experiment
from repro.sim.tableau import TableauSimulator


def assert_bit_identical(circuit: Circuit, shots: int, seed: int) -> None:
    """Packed, unpacked and reference samples of one seed agree exactly."""
    det_ref, obs_ref = reference_sample(circuit, shots, np.random.default_rng(seed))
    sim = FrameSimulator(circuit)
    det_keys, obs_keys = sim.sample_packed(shots, rng=np.random.default_rng(seed))
    assert det_keys.shape == (shots, (circuit.num_detectors + 7) // 8)
    assert obs_keys.shape == (shots, (circuit.num_observables + 7) // 8)
    det = np.unpackbits(det_keys, axis=1, count=circuit.num_detectors)
    obs = np.unpackbits(obs_keys, axis=1, count=circuit.num_observables)
    np.testing.assert_array_equal(det_ref, det)
    np.testing.assert_array_equal(obs_ref, obs)
    det_unpacked, obs_unpacked = sim.sample(shots, rng=np.random.default_rng(seed))
    np.testing.assert_array_equal(det_ref, det_unpacked)
    np.testing.assert_array_equal(obs_ref, obs_unpacked)


def random_clifford_noise_circuit(rng: np.random.Generator, qubits: int = 6) -> Circuit:
    """Random circuit exercising every op type the frame sampler supports."""
    circuit = Circuit()
    circuit.reset(*range(qubits))
    measured = 0
    for _ in range(40):
        kind = int(rng.integers(0, 14))
        q = int(rng.integers(0, qubits))
        a, b = (int(x) for x in rng.choice(qubits, size=2, replace=False))
        p = float(rng.uniform(0.05, 0.5))
        if kind == 0:
            circuit.h(q)
        elif kind == 1:
            circuit.s(q)
        elif kind == 2:
            circuit.append("S_DAG", (q,))
        elif kind == 3:
            circuit.cx(a, b)
        elif kind == 4:
            circuit.cz(a, b)
        elif kind == 5:
            circuit.swap(a, b)
        elif kind == 6:
            circuit.append("R" if rng.random() < 0.5 else "RX", (q,))
        elif kind == 7:
            circuit.x_error([a, b], p)
        elif kind == 8:
            circuit.z_error([q], p)
        elif kind == 9:
            circuit.append("Y_ERROR", (q,), p)
        elif kind == 10:
            circuit.depolarize1([a, b], p)
        elif kind == 11:
            circuit.depolarize2([a, b], p)
        elif kind == 12:
            px, py, pz = (float(x) for x in rng.dirichlet((1, 1, 1)) * p)
            circuit.pauli_channel_1([a, b], px, py, pz)
        else:
            probs = rng.dirichlet(np.ones(15)) * p
            circuit.pauli_channel_2([a, b], [float(x) for x in probs])
        # Interleave measurements so records accumulate mid-circuit.
        if rng.random() < 0.25:
            if rng.random() < 0.5:
                circuit.measure(q)
            else:
                circuit.measure_x(q)
            measured += 1
            if measured >= 2 and rng.random() < 0.5:
                circuit.detector([measured - 2, measured - 1])
    circuit.measure(*range(qubits))
    base = measured
    for q in range(qubits):
        circuit.detector([base + q])
    circuit.observable_include(0, [base, base + 1])
    return circuit


class TestPackedUnpackedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_circuits(self, seed):
        rng = np.random.default_rng(1000 + seed)
        circuit = random_clifford_noise_circuit(rng)
        assert_bit_identical(circuit, shots=33, seed=seed)

    @pytest.mark.parametrize("shots", [1, 7, 8, 9, 64, 200])
    def test_awkward_shot_counts(self, shots):
        circuit = memory_circuit(3, 3, 0.01)
        assert_bit_identical(circuit, shots=shots, seed=5)

    def test_memory_circuit(self):
        assert_bit_identical(memory_circuit(5, 6, 2e-3), shots=300, seed=17)

    def test_transversal_cnot_circuit(self):
        builder = transversal_cnot_experiment(3, 4, 0.004, [1, 2])
        assert_bit_identical(builder.circuit, shots=150, seed=23)

    def test_fused_gate_runs_with_repeats(self):
        # Consecutive same-name gates fuse; repeated targets must reduce
        # by parity (H H = I, S S = Z ~ I in the frame).
        circuit = (
            Circuit()
            .x_error([0, 1, 2], 0.4)
            .h(0, 0, 1)
            .h(2)
            .s(1, 1, 2)
            .cx(0, 1, 1, 2)  # overlapping CX pairs: order matters
            .cz(0, 2, 2, 1)
            .swap(0, 1, 1, 2)
            .measure_x(0, 1, 2)
            .measure(0, 1, 2)
            .detector([0, 3])
            .detector([1, 4])
            .detector([2, 5])
        )
        assert_bit_identical(circuit, shots=64, seed=3)

    def test_duplicate_noise_targets(self):
        # The same qubit twice in one noise op draws two independent hits.
        circuit = (
            Circuit()
            .x_error([0, 0, 1], 0.3)
            .depolarize2([0, 1, 0, 1], 0.3)
            .measure(0, 1)
            .detector([0])
            .detector([1])
        )
        assert_bit_identical(circuit, shots=128, seed=9)

    def test_pauli_channel_duplicate_targets_and_biases(self):
        # Biased channels: duplicate targets draw independently, zero and
        # extreme outcome probabilities behave, packed stays bit-exact.
        circuit = (
            Circuit()
            .pauli_channel_1([0, 0, 1], 0.2, 0.0, 0.5)
            .pauli_channel_2([0, 1, 0, 1], [0.4] + [0.0] * 13 + [0.3])
            .pauli_channel_1([2], 0.0, 0.0, 0.0)
            .h(0, 1, 2)
            .measure_x(0, 1)
            .measure(2)
            .detector([0])
            .detector([1])
            .detector([2])
        )
        assert_bit_identical(circuit, shots=160, seed=21)

    def test_noise_markers_are_dropped(self):
        # IDLE / FENCE are builder-side markers; both samplers skip them.
        circuit = (
            Circuit()
            .idle([0, 1])
            .fence()
            .x_error([0, 1], 0.4)
            .measure(0, 1)
            .detector([0])
            .detector([1])
        )
        steps = lower_ops(circuit.operations).steps
        assert all(s[0] not in ("IDLE", "FENCE") for s in steps)
        assert_bit_identical(circuit, shots=64, seed=6)

    def test_zero_probability_and_zero_shots(self):
        circuit = memory_circuit(3, 3, 0.0)
        assert_bit_identical(circuit, shots=16, seed=1)
        det_keys, obs_keys = FrameSimulator(circuit).sample_packed(0)
        assert det_keys.shape[0] == 0 and obs_keys.shape[0] == 0

    def test_pauli_and_tick_are_dropped(self):
        circuit = (
            Circuit()
            .append("X", (0,))
            .append("Y", (1,))
            .append("Z", (0,))
            .tick()
            .x_error([0, 1], 0.5)
            .measure(0, 1)
            .detector([0])
            .detector([1])
        )
        steps = lower_ops(circuit.operations).steps
        assert all(s[0] not in ("X", "Y", "Z", "TICK") for s in steps)
        assert_bit_identical(circuit, shots=40, seed=2)


class TestCompiledProgramStructure:
    def test_gate_fusion_merges_runs(self):
        circuit = Circuit().h(0).h(1).h(2).s(0).s(1).measure(0, 1, 2)
        steps = lower_ops(circuit.operations).steps
        kinds = [s[0] for s in steps]
        assert kinds == ["H", "S", "M"]
        assert list(steps[0][1]) == [0, 1, 2]

    def test_record_map_is_sparse_coo(self):
        circuit = (
            Circuit().x_error([0], 0.5).measure(0, 1).detector([0, 1])
            .observable_include(0, [1])
        )
        segment = lower_ops(circuit.operations)
        assert list(segment.det_meas) == [0, 1]
        assert list(segment.det_row) == [0, 0]
        assert list(segment.obs_meas) == [1]
        assert list(segment.obs_row) == [0]

    def test_forward_record_reference_rejected(self):
        # Deferred detector extraction is only equivalent to the eager
        # reference because forward references cannot be constructed.
        circuit = Circuit().measure(0)
        with pytest.raises(ValueError, match="record"):
            circuit.detector([1])
        with pytest.raises(ValueError, match="record"):
            circuit.observable_include(0, [-1])

    def test_non_clifford_rejected_like_reference(self):
        # The packed path must fail loudly on ops the frame formalism
        # cannot run, exactly like the reference sampler -- never sample
        # silently wrong tables.
        circuit = Circuit().h(0).t(0).measure(0).detector([0])
        with pytest.raises(ValueError, match="cannot run T"):
            reference_sample(circuit, 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="cannot run T"):
            FrameSimulator(circuit).sample(8)
        with pytest.raises(ValueError, match="cannot run T"):
            FrameSimulator(circuit).sample_packed(8)
        with pytest.raises(ValueError, match="cannot run CCZ"):
            CompiledProgram(Circuit().ccz(0, 1, 2).measure(0).detector([0]))

    def test_transpose_packed_round_trip(self):
        rng = np.random.default_rng(4)
        bits = (rng.random((13, 29)) < 0.4).astype(np.uint8)
        planes = np.packbits(bits, axis=1)  # (13 rows, 29 items)
        keys = transpose_packed(planes, 29)
        assert keys.shape == (29, 2)
        np.testing.assert_array_equal(
            np.unpackbits(keys, axis=1, count=13), bits.T
        )

    @pytest.mark.parametrize(
        "rows,count",
        [(1, 1), (13, 7), (8, 9), (17, 64), (40, 4095), (9, 4097), (0, 5),
         (5, 0)],
    )
    def test_transpose_packed_matches_unpack_formula(self, rows, count):
        # Oracle: unpack every bit, transpose, repack.  Input planes may be
        # non-contiguous views with nonzero pad bits past ``count``, as
        # run_packed's ``detectors[:, :words]`` slices are.
        rng = np.random.default_rng(rows * 10_000 + count)
        words = (count + 7) // 8
        padded = rng.integers(0, 256, (rows, words + 3), dtype=np.uint8)
        planes = padded[:, :words]
        expected = np.packbits(
            np.unpackbits(planes, axis=1, count=count).T, axis=1
        )
        keys = transpose_packed(planes, count)
        assert keys.shape == (count, (rows + 7) // 8)
        np.testing.assert_array_equal(keys, expected)


class TestTableauCrossCheck:
    """Compiled frame propagation vs an independent stabilizer simulator.

    Build a random Clifford U, run U then U^dagger so all Z measurements
    are deterministically 0, and inject one certain Pauli error between
    them.  The frame sampler's predicted measurement flips (one detector
    per record) must equal the records the tableau simulator actually
    produces for the same faulted circuit.
    """

    @staticmethod
    def _random_unitary(rng: np.random.Generator, qubits: int, depth: int):
        ops = []
        for _ in range(depth):
            kind = int(rng.integers(0, 5))
            q = int(rng.integers(0, qubits))
            a, b = (int(x) for x in rng.choice(qubits, size=2, replace=False))
            if kind == 0:
                ops.append(("H", (q,)))
            elif kind == 1:
                ops.append(("S", (q,)))
            elif kind == 2:
                ops.append(("CX", (a, b)))
            elif kind == 3:
                ops.append(("CZ", (a, b)))
            else:
                ops.append(("SWAP", (a, b)))
        return ops

    @staticmethod
    def _inverse(ops):
        inverse = []
        for name, targets in reversed(ops):
            inverse.append(("S_DAG" if name == "S" else name, targets))
        return inverse

    @pytest.mark.parametrize("seed", range(8))
    def test_injected_pauli_flips_match_tableau(self, seed):
        rng = np.random.default_rng(300 + seed)
        qubits = 4
        ops = self._random_unitary(rng, qubits, depth=12)
        error_name = ("X_ERROR", "Z_ERROR", "Y_ERROR")[seed % 3]
        pauli = {"X_ERROR": "X", "Z_ERROR": "Z", "Y_ERROR": "Y"}[error_name]
        error_qubit = int(rng.integers(0, qubits))

        # Frame circuit: U, certain error, U^dagger, measure all.
        frame_circuit = Circuit()
        for name, targets in ops:
            frame_circuit.append(name, targets)
        frame_circuit.append(error_name, (error_qubit,), 1.0)
        for name, targets in self._inverse(ops):
            frame_circuit.append(name, targets)
        frame_circuit.measure(*range(qubits))
        for q in range(qubits):
            frame_circuit.detector([q])

        det_keys, _ = FrameSimulator(frame_circuit).sample_packed(8)
        flips = np.unpackbits(det_keys, axis=1, count=qubits)
        assert (flips == flips[0]).all()  # p=1 error: every shot identical

        # Tableau circuit: same structure with the error as a hard gate.
        tableau = TableauSimulator(qubits)
        tableau_circuit = Circuit()
        for name, targets in ops:
            tableau_circuit.append(name, targets)
        tableau_circuit.append(pauli, (error_qubit,))
        for name, targets in self._inverse(ops):
            tableau_circuit.append(name, targets)
        tableau_circuit.measure(*range(qubits))
        tableau.run(tableau_circuit)
        # U^dagger U |0> = |0>: records are exactly the injected flips.
        np.testing.assert_array_equal(np.array(tableau.record), flips[0])
