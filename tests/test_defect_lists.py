"""Property tests for the defect-list symptom kernel.

Both shot sources -- the circuit programs and the importance sampler --
emit each batch as sorted ``(shot, detector)`` defect lists plus an
observable table (:func:`repro.sim.compiled.symptom_lists`).  The lists
must equal ``flatnonzero`` of the unpacked packed forms the same draw
gives, and of an independent reference: the byte-per-bit interpreter
for circuits, a hit-by-hit dense XOR for the importance sampler and for
hand-placed hits.
"""

import numpy as np
import pytest
from oracles import periodic_program, reference_sample
from test_sim_compiled import random_clifford_noise_circuit

from repro.estimator.rare import ImportanceSampler
from repro.noise.dem import DetectorErrorModel, ErrorMechanism, extract_dem
from repro.sim.circuit import Circuit
from repro.sim.compiled import CompiledProgram, draw_hits, symptom_lists
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit


def _lists(table):
    """``(shot, column)`` of the set entries of a dense table, row-major."""
    return np.divmod(np.flatnonzero(table), max(table.shape[1], 1))


def assert_batch_is(batch, detectors, observables):
    """``batch`` holds exactly the defects and observable flips of the
    dense ``(shots, n)`` tables."""
    shot, detector = _lists(detectors)
    assert batch.shot.dtype == batch.detector.dtype == np.int64
    np.testing.assert_array_equal(batch.shot, shot)
    np.testing.assert_array_equal(batch.detector, detector)
    assert batch.observables.dtype == np.uint8
    np.testing.assert_array_equal(batch.observables, observables)


def assert_packed_forms_agree(program, batch, shots, seed):
    """``run_packed`` and ``DefectBatch.packed`` of the same draw unpack to
    the lists."""
    det_planes, obs_planes = program.run_packed(shots, np.random.default_rng(seed))
    det_keys, obs_keys = batch.packed(program.num_detectors)
    from_planes = np.unpackbits(det_planes, axis=1, count=shots).T
    from_keys = np.unpackbits(det_keys, axis=1, count=program.num_detectors)
    obs = np.unpackbits(obs_keys, axis=1, count=program.num_observables)
    np.testing.assert_array_equal(from_planes, from_keys)
    np.testing.assert_array_equal(np.unpackbits(obs_planes, axis=1, count=shots).T, obs)
    assert_batch_is(batch, from_keys, obs)


def dense_xor(table, num_detectors, num_observables, row, shot, shots):
    """Reference symptoms: each hit XORs its fault's row into its shot."""
    det = np.zeros((shots, num_detectors), dtype=np.uint8)
    obs = np.zeros((shots, num_observables), dtype=np.uint8)
    for f, s in zip(row.tolist(), shot.tolist()):
        det[s, table.det_index[table.det_start[f]:table.det_start[f + 1]]] ^= 1
        obs[s, table.obs_index[table.obs_start[f]:table.obs_start[f + 1]]] ^= 1
    return det, obs


def _wide_circuit(observables=70, p=0.3):
    """Every qubit its own observable; a detector per qubit pair."""
    circuit = Circuit()
    circuit.reset(*range(observables))
    circuit.x_error(range(observables), p)
    circuit.measure(*range(observables))
    for q in range(observables):
        circuit.observable_include(q, [q])
    for q in range(0, observables - 1, 2):
        circuit.detector([q, q + 1])
    return circuit


def _hand_dem(num_observables=3):
    return DetectorErrorModel(
        [
            ErrorMechanism(0.05, (0, 2), (0,)),
            ErrorMechanism(0.05, (0, 2), ()),
            ErrorMechanism(0.1, (1,), (num_observables - 1,)),
            ErrorMechanism(0.02, (2, 3), ()),
        ],
        4,
        num_observables,
    )


class TestCircuitPrograms:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_linear_circuits(self, seed):
        rng = np.random.default_rng(4000 + seed)
        circuit = random_clifford_noise_circuit(rng, qubits=int(rng.integers(3, 8)))
        program = CompiledProgram(circuit)
        shots = int(rng.integers(1, 300))
        batch = program.sample_defects(shots, np.random.default_rng(seed))
        assert_batch_is(batch, *reference_sample(circuit, shots, np.random.default_rng(seed)))
        assert_packed_forms_agree(program, batch, shots, seed)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: memory_circuit(3, 4, 5e-3),
            lambda: memory_circuit(5, 5, 3e-3, basis="X"),
        ],
    )
    def test_periodic_circuits(self, build):
        circuit = build()
        program = periodic_program(circuit)
        for seed, shots in ((1, 1), (2, 333), (3, 1024)):
            batch = program.sample_defects(shots, np.random.default_rng(seed))
            assert_batch_is(batch, *reference_sample(circuit, shots, np.random.default_rng(seed)))
            assert_packed_forms_agree(program, batch, shots, seed)

    def test_frame_simulator_forms_agree(self):
        sim = FrameSimulator(memory_circuit(3, 3, 1e-2))
        batch = sim.sample_defects(257, np.random.default_rng(9))
        det, obs = sim.sample(257, np.random.default_rng(9))
        assert_batch_is(batch, det, obs)

    def test_zero_shots(self):
        program = CompiledProgram(memory_circuit(3, 3, 1e-2))
        batch = program.sample_defects(0, np.random.default_rng(0))
        assert batch.shots == 0 and batch.shot.size == batch.detector.size == 0
        assert batch.observables.shape == (0, program.num_observables)
        assert_packed_forms_agree(program, batch, 0, 0)

    def test_plan_without_hits(self):
        program = CompiledProgram(memory_circuit(3, 3, 0.0))
        assert program._plan == []
        batch = program.sample_defects(100, np.random.default_rng(0))
        assert batch.detector.size == 0 and not batch.observables.any()
        assert_packed_forms_agree(program, batch, 100, 0)

    def test_more_than_62_observables(self):
        circuit = _wide_circuit()
        program = CompiledProgram(circuit)
        batch = program.sample_defects(200, np.random.default_rng(5))
        assert batch.observables.shape == (200, 70)
        assert batch.observables[:, 62:].any()
        assert_batch_is(batch, *reference_sample(circuit, 200, np.random.default_rng(5)))
        assert_packed_forms_agree(program, batch, 200, 5)


class TestImportanceSampler:
    @pytest.mark.parametrize("num_observables", [3, 70])
    def test_lists_match_dense_xor_and_packed(self, num_observables):
        dem = _hand_dem(num_observables)
        sampler = ImportanceSampler(dem, inflation=3.0)
        for seed, shots in ((1, 0), (2, 1), (3, 500)):
            batch = sampler.sample_defects(shots, np.random.default_rng(seed))
            row, shot = draw_hits(np.random.default_rng(seed), sampler._plan, shots)
            det, obs = dense_xor(dem.fault_table(), 4, num_observables, row, shot, shots)
            assert_batch_is(batch, det, obs)
            det_keys, obs_keys, llr = sampler.sample_weighted(
                shots, np.random.default_rng(seed)
            )
            np.testing.assert_array_equal(
                np.unpackbits(det_keys, axis=1, count=4), det
            )
            np.testing.assert_array_equal(
                np.unpackbits(obs_keys, axis=1, count=num_observables), obs
            )
            np.testing.assert_array_equal(llr, batch.log_weights)

    def test_memory_sampler(self):
        dem = extract_dem(memory_circuit(5, 5, 1e-3))
        sampler = ImportanceSampler(dem, inflation=5.0)
        batch = sampler.sample_defects(400, np.random.default_rng(11))
        row, shot = draw_hits(np.random.default_rng(11), sampler._plan, 400)
        assert_batch_is(
            batch,
            *dense_xor(dem.fault_table(), dem.num_detectors, dem.num_observables, row, shot, 400),
        )


class TestHandPlacedHits:
    """:func:`symptom_lists` on hits placed by hand over a small table."""

    table = _hand_dem().fault_table()

    def lists(self, row, shot, shots):
        row, shot = np.array(row, dtype=np.int64), np.array(shot, dtype=np.int64)
        batch = symptom_lists(self.table, 4, 3, row, shot, shots)
        assert_batch_is(batch, *dense_xor(self.table, 4, 3, row, shot, shots))
        return batch

    def test_no_hits(self):
        batch = self.lists([], [], 5)
        assert batch.detector.size == 0 and batch.observables.shape == (5, 3)

    def test_fault_hit_twice_cancels(self):
        batch = self.lists([0, 0, 3], [1, 1, 1], 2)
        assert batch.detector.tolist() == [2, 3]
        assert not batch.observables.any()
        # Three hits leave one.
        batch = self.lists([0, 0, 0], [0, 0, 0], 1)
        assert batch.detector.tolist() == [0, 2]
        assert batch.observables.tolist() == [[1, 0, 0]]

    def test_faults_cancel_to_no_defects(self):
        # Faults 0 and 1 share detectors {0, 2}; together they leave only
        # fault 0's observable flip.
        batch = self.lists([1, 0, 2], [0, 0, 1], 2)
        assert batch.shot.tolist() == [1] and batch.detector.tolist() == [1]
        assert batch.observables.tolist() == [[1, 0, 0], [0, 0, 1]]

    def test_unsorted_hits_give_sorted_lists(self):
        batch = self.lists([3, 2, 0, 3], [4, 0, 4, 2], 5)
        keys = batch.shot * 4 + batch.detector
        assert np.all(np.diff(keys) > 0)
