"""The per-fault symptom table the packed samplers draw from.

A shot's detector/observable bits are the XOR of the symptoms of the
faults drawn for it, so every table row must equal the byte-per-bit
propagation of that fault alone (``oracles.fault_symptoms``); the
periodic extraction's unrolled table must equal the whole-circuit one
row for row; and one propagation per circuit must serve both DEM
extraction and sampling.
"""

import numpy as np
import pytest
from oracles import fault_symptoms, reference_mechanisms, reference_sample

from test_sim_compiled import random_clifford_noise_circuit
from test_sim_periodic import DEM_ORACLE_CIRCUITS

from repro.core.cache import clear_caches
from repro.decoder.engine import DecodingEngine
from repro.noise import dem as _dem
from repro.sim.circuit import Circuit
from repro.sim.compiled import CompiledProgram
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit
from repro.sim.periodic import compile_program, detect_period


def dense(start, index, columns):
    """A CSR table as a dense ``(rows, columns)`` uint8 matrix."""
    rows = start.size - 1
    table = np.zeros((rows, columns), dtype=np.uint8)
    table[np.repeat(np.arange(rows), np.diff(start)), index] = 1
    return table


def assert_matches_oracle(circuit, table):
    mechanisms, detectors, observables = fault_symptoms(circuit)
    assert len(table) == len(mechanisms)
    np.testing.assert_array_equal(
        table.probabilities, [prob for _, prob, _, _ in mechanisms]
    )
    np.testing.assert_array_equal(
        dense(table.det_start, table.det_index, circuit.num_detectors), detectors
    )
    np.testing.assert_array_equal(
        dense(table.obs_start, table.obs_index, circuit.num_observables),
        observables,
    )


def assert_columns_match_reference(circuit):
    """The array enumeration equals the per-channel tuple reference."""
    faults = _dem.enumerate_mechanisms(circuit)
    reference = reference_mechanisms(circuit)
    assert len(faults) == len(reference)
    index = {id(op): i for i, op in enumerate(circuit.operations)}
    np.testing.assert_array_equal(faults.op, [index[id(op)] for op, _, _, _ in reference])
    np.testing.assert_array_equal(
        faults.probability, np.array([p for _, p, _, _ in reference], dtype=np.float64)
    )
    for f, (_, _, x_qubits, z_qubits) in enumerate(reference):
        assert sorted(faults.qubits[f][faults.x[f]].tolist()) == sorted(x_qubits)
        assert sorted(faults.qubits[f][faults.z[f]].tolist()) == sorted(z_qubits)


def assert_tables_equal(a, b):
    for field in ("probabilities", "det_start", "det_index", "obs_start", "obs_index"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


class TestRowsMatchOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_clifford_circuits(self, seed):
        circuit = random_clifford_noise_circuit(np.random.default_rng(1000 + seed))
        assert_matches_oracle(circuit, _dem.whole_circuit_faults(circuit))
        assert_matches_oracle(circuit, _dem.circuit_faults(circuit))

    @pytest.mark.parametrize("build", DEM_ORACLE_CIRCUITS)
    def test_dem_oracle_circuits(self, build):
        circuit = build()
        assert_matches_oracle(circuit, _dem.circuit_faults(circuit))


class TestEnumeration:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_clifford_columns_match_reference(self, seed):
        circuit = random_clifford_noise_circuit(np.random.default_rng(2000 + seed))
        assert_columns_match_reference(circuit)

    @pytest.mark.parametrize("build", DEM_ORACLE_CIRCUITS)
    def test_dem_oracle_columns_match_reference(self, build):
        assert_columns_match_reference(build())

    def test_repeated_pair_qubit_cancels(self):
        # A two-qubit channel on (q, q): outcomes flipping the same Pauli
        # on both halves cancel in propagation, as in the reference.
        circuit = Circuit().reset(0).depolarize2([0, 0], 0.1).measure(0).detector([0])
        assert_columns_match_reference(circuit)
        assert_matches_oracle(circuit, _dem.whole_circuit_faults(circuit))


class TestPeriodicTable:
    @pytest.mark.parametrize(
        "distance,rounds,basis,noise",
        [
            (3, 6, "Z", None),
            (3, 9, "X", "biased_pauli"),
            (5, 10, "Z", "movement_aware"),
            (5, 7, "X", None),
        ],
    )
    def test_unrolled_table_equals_whole_circuit(self, distance, rounds, basis, noise):
        kwargs = {"basis": basis} if noise is None else {"basis": basis, "noise": noise}
        circuit = memory_circuit(distance, rounds, 1e-3, **kwargs)
        periodic, reason = _dem._periodic_faults(circuit, detect_period(circuit))
        assert reason is None
        assert_tables_equal(periodic, _dem.whole_circuit_faults(circuit))

    def test_fallback_table_carries_reason(self):
        table = _dem.circuit_faults(memory_circuit(3, 4, 1e-3))
        assert table.periodic_fallback == "few_reps"

    def test_program_rejects_mismatched_table(self):
        circuit = memory_circuit(3, 3, 1e-3)
        other = _dem.whole_circuit_faults(memory_circuit(3, 4, 1e-3))
        with pytest.raises(ValueError, match="fault table"):
            CompiledProgram(circuit, other)


def lagged_detectors(lag, reps=8):
    """Each round's detector compares its record with the one ``lag`` rounds back."""
    circuit = Circuit()
    for _ in range(lag):
        circuit.reset(0).measure(0)
    for _ in range(reps):
        circuit.reset(0).x_error([0], 0.1).measure(0)
        record = circuit.num_measurements - 1
        circuit.detector([record, record - lag])
    return circuit.measure(1)


def unmeasured_rounds(reps=6):
    circuit = Circuit().reset(0, 1)
    for _ in range(reps):
        circuit.h(0).x_error([0], 0.1).cx(0, 1)
    return circuit.measure(0, 1).detector([0])


def epilogue_to_first_round(reps=8):
    circuit = Circuit().reset(0)
    for _ in range(reps):
        circuit.reset(0).x_error([0], 0.1).measure(0)
        circuit.detector([circuit.num_measurements - 1])
    circuit.measure(0)
    return circuit.detector([circuit.num_measurements - 1, 0])


def prologue_fault_on_unreset_qubit(reps=8):
    circuit = Circuit().reset(0, 1).x_error([1], 0.1)
    for _ in range(reps):
        circuit.reset(0).x_error([0], 0.1).measure(0, 1)
        record = circuit.num_measurements
        circuit.detector([record - 2]).detector([record - 1])
    return circuit


@pytest.mark.parametrize(
    "build,reason",
    [
        (lambda: Circuit().x_error([0], 0.1).measure(0).detector([0]), "no_period"),
        (lambda: memory_circuit(3, 4, 1e-3), "few_reps"),
        (unmeasured_rounds, "no_round_measurements"),
        (epilogue_to_first_round, "epilogue_record_ref"),
        (lambda: lagged_detectors(4), "uncertified_shift"),
        (lambda: lagged_detectors(2), "span_exceeds_certified"),
        (prologue_fault_on_unreset_qubit, "prologue_span"),
        (lambda: memory_circuit(3, 6, 1e-3), None),
    ],
)
def test_every_fallback_reason(build, reason):
    circuit = build()
    table = _dem.circuit_faults(circuit)
    assert table.periodic_fallback == reason
    assert _dem.extract_dem(circuit).periodic_fallback == reason
    assert_matches_oracle(circuit, table)


def test_engine_setup_propagates_once(monkeypatch):
    calls = []
    propagate = _dem._mechanism_symptoms_packed

    def counted(circuit, mechanisms):
        calls.append(len(mechanisms))
        return propagate(circuit, mechanisms)

    monkeypatch.setattr(_dem, "_mechanism_symptoms_packed", counted)
    for circuit in (memory_circuit(5, 6, 1e-3), memory_circuit(3, 4, 1e-3)):
        clear_caches()
        calls.clear()
        with DecodingEngine(circuit, "mwpm") as engine:
            compile_program(circuit)
            engine.run(256, seed=3)
        assert len(calls) == 1


def test_engine_setup_detects_the_period_once(monkeypatch):
    from repro.sim import periodic

    calls = []
    detect = periodic.detect_period

    def counted(circuit):
        calls.append(circuit)
        return detect(circuit)

    monkeypatch.setattr(periodic, "detect_period", counted)
    # A periodic memory and one that falls back with a detected round.
    for circuit in (memory_circuit(5, 6, 1e-3), memory_circuit(3, 4, 1e-3)):
        clear_caches()
        calls.clear()
        with DecodingEngine(circuit, "union_find") as engine:
            program = compile_program(circuit)
            engine.run(256, seed=3)
        assert len(calls) == 1
        assert _dem.circuit_faults(circuit).period == detect(circuit)
        assert isinstance(program, periodic.PeriodicProgram)


def test_engine_setup_fingerprints_the_circuit_twice(monkeypatch):
    """Engine set-up hashes its circuit once for DEM extraction and once
    for the sampler's program; a further ``compile_program`` hashes it
    once more and shares the memoized fault table."""
    from repro.sim import periodic

    calls = []
    fingerprint = periodic.circuit_fingerprint

    def counted(circuit):
        calls.append(circuit)
        return fingerprint(circuit)

    monkeypatch.setattr(periodic, "circuit_fingerprint", counted)
    circuit = memory_circuit(11, 12, 5e-4)
    clear_caches()
    with DecodingEngine(circuit, "union_find") as engine:
        assert len(calls) == 2
        program = compile_program(circuit)
        assert len(calls) == 3
        assert program._faults is engine._sim.compiled._faults
    assert isinstance(program, periodic.PeriodicProgram)


class TestEdgeCases:
    @pytest.mark.parametrize("shots", [0, 1, 7, 8, 9, 63, 64, 65])
    def test_shot_counts_match_reference(self, shots):
        circuit = memory_circuit(3, 6, 0.02)
        det_ref, obs_ref = reference_sample(circuit, shots, np.random.default_rng(4))
        det, obs = FrameSimulator(circuit).sample(shots, rng=np.random.default_rng(4))
        np.testing.assert_array_equal(det, det_ref)
        np.testing.assert_array_equal(obs, obs_ref)

    def test_circuit_without_detectors(self):
        circuit = Circuit().x_error([0, 1], 0.3).measure(0, 1).observable_include(0, [1])
        det_ref, obs_ref = reference_sample(circuit, 70, np.random.default_rng(8))
        det, obs = FrameSimulator(circuit).sample(70, rng=np.random.default_rng(8))
        assert det.shape == (70, 0)
        np.testing.assert_array_equal(obs, obs_ref)
        assert obs.any()

    def test_circuit_without_noise(self):
        circuit = memory_circuit(3, 3, 1e-3).without_noise()
        assert len(_dem.circuit_faults(circuit)) == 0
        det, obs = compile_program(circuit).run_packed(65, np.random.default_rng(1))
        assert det.shape == (circuit.num_detectors, 9) and not det.any()
        assert obs.shape == (circuit.num_observables, 9) and not obs.any()
