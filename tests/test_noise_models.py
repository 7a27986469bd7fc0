"""Tests for the pluggable noise layer: models, registry, DEM weighting.

The load-bearing guarantees:

* ``UniformDepolarizing(p)`` applied to the clean builders reproduces the
  historical hand-emitted noisy op stream *token for token* (golden files
  captured from the pre-refactor emitter).
* The biased/movement models emit valid channels, and the movement model
  really consumes AOD-validated schedule durations.
* DEM-weighted MWPM never decodes worse than the uniform-weight baseline
  graph on the fig6 memory sweep, bit-reproducibly per seed.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.atoms.scheduler import MoveSchedule, round_trip
from repro.core.params import PhysicalParams
from repro.decoder.engine import DecodingEngine, available_decoders, make_decoder
from repro.decoder.graph import DecodingGraph
from repro.noise.dem import extract_dem
from repro.noise.models import (
    BiasedPauli,
    MovementAware,
    NoiseModel,
    UniformDepolarizing,
    available_noise_models,
    make_noise_model,
    register_noise_model,
    transversal_move_schedule,
)
from repro.sim.circuit import Circuit
from repro.sim.frame import FrameSimulator
from repro.sim.memory import (
    MemoryExperimentBuilder,
    memory_circuit,
    transversal_cnot_experiment,
)

GOLDEN = Path(__file__).parent / "golden"


def _tokens(circuit: Circuit) -> str:
    return "\n".join(
        f"{op.name} {op.arg!r} {' '.join(str(t) for t in op.targets)}".rstrip()
        for op in circuit.operations
    ) + "\n"


class TestGoldenEmissionParity:
    """UniformDepolarizing must reproduce the historical emission exactly."""

    @pytest.mark.parametrize("name,build", [
        ("emission_memory_d3_r3_p002_Z.txt",
         lambda: memory_circuit(3, 3, 0.002)),
        ("emission_memory_d3_r2_p001_X.txt",
         lambda: memory_circuit(3, 2, 0.001, basis="X")),
        ("emission_cnot_d3_r4_p004_Z.txt",
         lambda: transversal_cnot_experiment(3, 4, 0.004, [1, 2]).circuit),
        ("emission_memory_d5_r2_p003_Z.txt",
         lambda: memory_circuit(5, 2, 0.003)),
    ])
    def test_token_identical(self, name, build):
        assert _tokens(build()) == (GOLDEN / name).read_text()

    def test_explicit_model_matches_p_sugar(self):
        sugar = memory_circuit(3, 2, 0.004)
        explicit = memory_circuit(3, 2, 0.004, noise=UniformDepolarizing(0.004))
        named = memory_circuit(3, 2, 0.004, noise="uniform_depolarizing")
        assert _tokens(sugar) == _tokens(explicit) == _tokens(named)

    def test_markers_consumed(self):
        for model in (UniformDepolarizing(0.0), UniformDepolarizing(1e-3),
                      BiasedPauli(1e-3), MovementAware(1e-3)):
            circuit = memory_circuit(3, 2, 1e-3, noise=model)
            names = {op.name for op in circuit.operations}
            assert "IDLE" not in names and "FENCE" not in names

    def test_zero_probability_emits_clean_circuit(self):
        noisy = memory_circuit(3, 2, 0.0)
        assert _tokens(noisy) == _tokens(noisy.without_noise())

    def test_injected_noise_passes_through(self):
        # Deliberate error injection into the clean circuit: a documented
        # violation of the clean-stage contract, so strict verification
        # (on suite-wide via REPRO_STRICT) is opted out here.
        builder = MemoryExperimentBuilder(3, basis="Z", p=0.0, strict=False)
        builder.se_round()
        builder.circuit.x_error([0, 1], 1.0)
        builder.se_round()
        circuit = builder.finalize()
        injected = [op for op in circuit.operations if op.name == "X_ERROR"]
        assert len(injected) == 1 and injected[0].arg == 1.0


class TestRegistry:
    def test_builtin_names(self):
        names = available_noise_models()
        assert {"uniform_depolarizing", "biased_pauli", "movement_aware"} <= set(names)

    def test_make_noise_model(self):
        model = make_noise_model("biased_pauli", p=1e-3, bias=4.0)
        assert isinstance(model, NoiseModel)
        assert model.bias == 4.0

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="available"):
            make_noise_model("no_such_model", p=1e-3)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_noise_model("uniform_depolarizing", UniformDepolarizing)

    def test_builder_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            UniformDepolarizing(1.5)
        with pytest.raises(ValueError):
            BiasedPauli(1e-3, bias=0.0)


class TestBiasedPauli:
    def test_bias_one_equals_depolarizing_rates(self):
        model = BiasedPauli(3e-3, bias=1.0)
        assert np.allclose(model._p1, [1e-3] * 3)
        assert np.allclose(model._p2, [3e-3 / 15] * 15)

    def test_channel_totals_are_p(self):
        model = BiasedPauli(2e-3, bias=8.0)
        assert math.isclose(sum(model._p1), 2e-3)
        assert math.isclose(sum(model._p2), 2e-3)
        # Z outcomes carry `bias` times the X weight.
        assert math.isclose(model._p1[2] / model._p1[0], 8.0)

    def test_emits_pauli_channels(self):
        circuit = memory_circuit(3, 2, 1e-3, noise=BiasedPauli(1e-3, bias=4.0))
        names = [op.name for op in circuit.operations]
        assert "PAULI_CHANNEL_1" in names
        assert "PAULI_CHANNEL_2" in names
        assert "DEPOLARIZE1" not in names and "DEPOLARIZE2" not in names

    def test_channel_op_validation(self):
        with pytest.raises(ValueError, match="outcome probabilities"):
            Circuit().append("PAULI_CHANNEL_1", (0,), 0.1, (0.1,))
        with pytest.raises(ValueError, match="invalid"):
            Circuit().append("PAULI_CHANNEL_1", (0,), 0.9, (0.4, 0.4, 0.4))
        with pytest.raises(ValueError, match="pairs"):
            Circuit().pauli_channel_2([0], [0.01] * 15)
        with pytest.raises(ValueError, match="no outcome"):
            Circuit().append("DEPOLARIZE1", (0,), 0.1, (0.1, 0.0, 0.0))


class TestMovementAware:
    def test_idle_inflated_by_move_duration(self):
        p = 1e-3
        model = MovementAware(p, distance=5)
        assert model.move_duration > 0
        assert model.idle_p > p
        # The non-idle locations keep the bare rate.
        assert model.after_gate2((0, 1))[0][2] == p

    def test_longer_coherence_means_less_idle_error(self):
        slow = MovementAware(1e-3, physical=PhysicalParams().rescaled(coherence_time=0.1))
        fast = MovementAware(1e-3, physical=PhysicalParams().rescaled(coherence_time=100.0))
        assert slow.idle_p > fast.idle_p

    def test_schedule_durations_reach_the_circuit(self):
        # The emitted DEPOLARIZE1 arg must equal the model's computed
        # idle_p -- the schedule's physical duration, through core.idle.
        model = MovementAware(1e-3, distance=3)
        circuit = memory_circuit(3, 2, 1e-3, noise=model)
        idles = [op for op in circuit.operations if op.name == "DEPOLARIZE1"]
        assert idles and all(op.arg == pytest.approx(model.idle_p) for op in idles)

    def test_registry_name_resolves_with_circuit_distance(self):
        # noise="movement_aware" must derive the move duration from the
        # *circuit's* distance, not the factory default.
        circuit = memory_circuit(5, 2, 1e-3, noise="movement_aware")
        expected = MovementAware(1e-3, distance=5).idle_p
        idles = [op for op in circuit.operations if op.name == "DEPOLARIZE1"]
        assert idles and all(op.arg == pytest.approx(expected) for op in idles)
        assert expected > MovementAware(1e-3, distance=3).idle_p

    def test_custom_schedule(self):
        schedule = round_trip("test", [(0, 0), (0, 1)], 0, 10)
        model = MovementAware(1e-3, schedule=schedule)
        assert model.move_duration == pytest.approx(
            schedule.duration(PhysicalParams())
        )

    def test_transversal_move_schedule_is_aod_valid(self):
        schedule = transversal_move_schedule(5)
        assert isinstance(schedule, MoveSchedule)
        assert schedule.move_count() == 2
        assert schedule.max_move_sites == pytest.approx(5.0)


class TestDemWeighting:
    def test_biased_dem_has_asymmetric_probabilities(self):
        # A Z-biased channel must put more probability on mechanisms that
        # flip Z-type detectors (which catch X errors) ... i.e. on the
        # X-flip mechanisms; check via a one-qubit toy circuit instead.
        circuit = (
            Circuit()
            .reset(0)
            .pauli_channel_1([0], 0.01, 0.0, 0.04)
            .measure(0)
            .detector([0])
        )
        dem = extract_dem(circuit)
        # Only X and Y flip an M record; py = 0, so one mechanism at px.
        assert len(dem.mechanisms) == 1
        assert dem.mechanisms[0].probability == pytest.approx(0.01)

    def test_uniform_graph_flattens_weights(self):
        dem = extract_dem(memory_circuit(3, 2, 3e-3))
        weighted = DecodingGraph.from_dem(dem)
        flat = DecodingGraph.from_dem_uniform(dem)
        assert len(weighted.edges) == len(flat.edges)
        assert len({e.probability for e in flat.edges}) == 1
        assert len({round(e.probability, 12) for e in weighted.edges}) > 1

    def test_mwpm_uniform_registered(self):
        assert "mwpm_uniform" in available_decoders()

    def test_weighted_never_worse_than_uniform_on_fig6_sweep(self):
        """Acceptance: DEM-LLR MWPM <= uniform baseline, per seed, paired."""
        p = 0.003
        for distance, shots in ((3, 2000), (5, 800)):
            circuit = memory_circuit(distance, distance + 1, p)
            dem = FrameSimulator(circuit).detector_error_model()
            weighted = make_decoder("mwpm", dem)
            flat = make_decoder("mwpm_uniform", dem)
            with DecodingEngine(circuit, weighted) as engine:
                batch = engine.collect(shots, seed=np.random.SeedSequence(29))
            failures = {}
            for name, decoder in (("weighted", weighted), ("uniform", flat)):
                pred = decoder.decode_defects(batch.shot, batch.detector, shots)
                failures[name] = int((pred[:, 0] ^ batch.observables[:, 0]).sum())
            assert failures["weighted"] <= failures["uniform"], (
                f"d={distance}: DEM-weighted MWPM ({failures['weighted']}) "
                f"worse than the uniform baseline ({failures['uniform']})"
            )

    def test_paired_failure_counts_matches_engine_run(self):
        # The shared paired-decode helper samples with the engine's shard
        # layout, so a single-decoder pairing equals an ordinary run.
        from repro.decoder.analysis import paired_failure_counts

        circuit = memory_circuit(3, 3, 4e-3, basis="X",
                                 noise=BiasedPauli(4e-3, bias=4.0))
        counts = paired_failure_counts(circuit, {"mwpm": "mwpm"}, 512, seed=7)
        with DecodingEngine(circuit, "mwpm") as engine:
            res = engine.run(512, seed=7)
        assert counts["mwpm"] == res.failures
        assert paired_failure_counts(circuit, {}, 512) == {}

    def test_engine_bit_reproducible_per_seed(self):
        circuit = memory_circuit(3, 3, 4e-3, noise=BiasedPauli(4e-3, bias=4.0))
        results = []
        for _ in range(2):
            with DecodingEngine(circuit, "mwpm") as engine:
                res = engine.run(600, seed=23)
            results.append((res.shots, res.failures))
        assert results[0] == results[1]

    def test_sequential_decoder_accepts_biased_noise(self):
        builder = transversal_cnot_experiment(
            3, 3, 3e-3, [1], noise=BiasedPauli(3e-3, bias=4.0)
        )
        with DecodingEngine(
            builder.circuit, "sequential",
            detector_meta=builder.detector_meta, observable=None,
        ) as engine:
            res = engine.run(200, seed=3)
        assert res.shots == 200


class TestMechanismEnumeration:
    """enumerate_mechanisms must cover repro.sim.ops.NOISE exactly."""

    def test_every_builtin_channel_enumerates(self):
        from repro.noise.dem import enumerate_mechanisms
        from repro.sim.circuit import Circuit

        c = Circuit().reset(0, 1)
        c.x_error([0], 1e-3).z_error([0], 1e-3)
        c.append("Y_ERROR", [0], 1e-3)
        c.depolarize1([0], 1e-3).depolarize2([0, 1], 1e-3)
        c.pauli_channel_1([0], 1e-4, 2e-4, 3e-4)
        c.pauli_channel_2([0, 1], [1e-5] * 15)
        c.measure(0, 1)
        faults = enumerate_mechanisms(c)
        # 1 + 1 + 1 outcomes for X/Z/Y, 3 for D1, 15 for D2, 3 + 15 biased.
        assert len(faults) == 1 + 1 + 1 + 3 + 15 + 3 + 15
        # Every noise op (ops 1..7) owns its outcomes, in circuit order.
        assert np.bincount(faults.op).tolist() == [0, 1, 1, 1, 3, 15, 3, 15]
        np.testing.assert_array_equal(
            faults.probability,
            [1e-3] * 3 + [1e-3 / 3] * 3 + [1e-3 / 15] * 15
            + [1e-4, 2e-4, 3e-4] + [1e-5] * 15,
        )
        # X, Z, Y errors; then D1's X, Y, Z on qubit 0 alone.
        assert faults.x[:6, 0].tolist() == [1, 0, 1, 1, 1, 0]
        assert faults.z[:6, 0].tolist() == [0, 1, 1, 0, 1, 1]
        assert (faults.qubits[:6] == [0, -1]).all()
        assert not faults.x[:6, 1].any() and not faults.z[:6, 1].any()
        # D2 spans the pair; its first outcome is X on the second qubit.
        assert (faults.qubits[6:21] == [0, 1]).all()
        assert faults.x[6].tolist() == [0, 1] and faults.z[6].tolist() == [0, 0]

    def test_unrecognized_noise_op_raises(self, monkeypatch):
        """Regression: extending NOISE without extending the enumerator
        must raise instead of silently dropping the channel from the DEM."""
        import repro.sim.circuit as circuit_mod
        import repro.sim.ops as ops
        from repro.noise.dem import enumerate_mechanisms, extract_dem
        from repro.sim.circuit import Circuit

        monkeypatch.setattr(ops, "NOISE", ops.NOISE + ("W_ERROR",))
        monkeypatch.setattr(
            circuit_mod, "ALL_NAMES", circuit_mod.ALL_NAMES + ("W_ERROR",)
        )
        c = Circuit().reset(0)
        c.append("W_ERROR", [0], 1e-3)
        c.measure(0)
        with pytest.raises(ValueError, match="no DEM mechanism enumeration"):
            enumerate_mechanisms(c)
        with pytest.raises(ValueError, match="no DEM mechanism enumeration"):
            extract_dem(c)

    def test_non_noise_ops_are_skipped(self):
        from repro.noise.dem import enumerate_mechanisms
        from repro.sim.circuit import Circuit

        c = Circuit().reset(0).h(0).measure(0).detector([0])
        faults = enumerate_mechanisms(c)
        assert len(faults) == 0
        assert faults.qubits.shape == faults.x.shape == faults.z.shape == (0, 2)
