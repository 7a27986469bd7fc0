"""Tests for the batched Monte-Carlo decoding engine and decoder fixes.

Covers the registry, dedup-vs-per-shot prediction equality for all three
decoders, the packed engine against the byte-per-bit reference run (see
``oracles.py``), bit-identical results for 1 vs. N workers, streaming
early-stop, the MWPM odd-defect guard, MWPM's single-shot ``decode``
against its batch path, and union-find zero-weight growth.
"""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from oracles import (
    WholeSyndromeMWPM,
    networkx_path_tables,
    per_shot_decode,
    reference_run,
    reference_sample,
)

from repro.decoder.base import BatchDecoder, Decoder, defect_lists, dense_rows
from repro.decoder.engine import (
    DecodingEngine,
    available_decoders,
    make_decoder,
    register_decoder,
)
from repro.decoder.graph import BOUNDARY, DecodingGraph
from repro.decoder.mwpm import MWPMDecoder
from repro.decoder.sequential import SequentialCNOTDecoder
from repro.decoder.union_find import UnionFindDecoder
from repro.noise.dem import extract_dem
from repro.noise.models import BiasedPauli
from repro.sim.frame import DetectorErrorModel, ErrorMechanism, FrameSimulator
from repro.sim.memory import memory_circuit, transversal_cnot_experiment


@pytest.fixture(scope="module")
def memory_setup():
    """d=3 memory circuit with its DEM and a sampled syndrome batch."""
    circuit = memory_circuit(3, 3, 0.005)
    sim = FrameSimulator(circuit, rng=np.random.default_rng(7))
    dem = sim.detector_error_model()
    detectors, observables = sim.sample(300)
    return circuit, dem, detectors, observables


class TestRegistry:
    def test_builtin_decoders_listed(self):
        names = available_decoders()
        for expected in ("mwpm", "union_find", "sequential"):
            assert expected in names

    def test_make_decoder_types(self, memory_setup):
        _, dem, _, _ = memory_setup
        assert isinstance(make_decoder("mwpm", dem), MWPMDecoder)
        assert isinstance(make_decoder("union_find", dem), UnionFindDecoder)

    def test_decoders_satisfy_protocol(self, memory_setup):
        _, dem, _, _ = memory_setup
        assert isinstance(make_decoder("mwpm", dem), Decoder)
        assert isinstance(make_decoder("union_find", dem), Decoder)

    def test_unknown_name_rejected(self, memory_setup):
        _, dem, _, _ = memory_setup
        with pytest.raises(ValueError, match="unknown decoder"):
            make_decoder("nope", dem)

    def test_sequential_requires_metadata(self, memory_setup):
        _, dem, _, _ = memory_setup
        with pytest.raises(ValueError, match="detector_meta"):
            make_decoder("sequential", dem)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_decoder("mwpm", lambda dem, **kw: None)

    def test_sequential_builds_with_metadata(self):
        builder = transversal_cnot_experiment(3, 4, 1e-3, [1])
        dem = FrameSimulator(builder.circuit).detector_error_model()
        dec = make_decoder("sequential", dem, detector_meta=builder.detector_meta)
        assert isinstance(dec, SequentialCNOTDecoder)


class TestDedupEquality:
    """decode_batch with dedup must be bit-identical to the per-shot loop."""

    @pytest.mark.parametrize("name", ["mwpm", "union_find"])
    def test_memory_decoders(self, memory_setup, name):
        _, dem, detectors, _ = memory_setup
        decoder = make_decoder(name, dem)
        np.testing.assert_array_equal(
            decoder.decode_batch(detectors),
            per_shot_decode(decoder, detectors),
        )

    def test_sequential_decoder(self):
        builder = transversal_cnot_experiment(3, 4, 0.004, [1, 2])
        sim = FrameSimulator(builder.circuit, rng=np.random.default_rng(9))
        dem = sim.detector_error_model()
        decoder = make_decoder("sequential", dem, detector_meta=builder.detector_meta)
        detectors, _ = sim.sample(200)
        np.testing.assert_array_equal(
            decoder.decode_batch(detectors),
            per_shot_decode(decoder, detectors),
        )

    def test_random_syndromes(self, memory_setup):
        # Arbitrary (not just sampled) syndrome rows dedup identically.
        _, dem, _, _ = memory_setup
        rng = np.random.default_rng(21)
        syndromes = (rng.random((60, dem.num_detectors)) < 0.1).astype(np.uint8)
        decoder = make_decoder("mwpm", dem)
        np.testing.assert_array_equal(
            decoder.decode_batch(syndromes),
            per_shot_decode(decoder, syndromes),
        )

    def test_empty_batch(self, memory_setup):
        _, dem, _, _ = memory_setup
        decoder = make_decoder("mwpm", dem)
        out = decoder.decode_batch(np.zeros((0, dem.num_detectors), dtype=np.uint8))
        assert out.shape == (0, dem.num_observables)

    def test_zero_detector_circuit(self, memory_setup):
        # A (shots, 0) syndrome table must still yield one row per shot.
        _, dem, _, _ = memory_setup
        decoder = make_decoder("mwpm", dem)
        syndromes = np.zeros((5, 0), dtype=np.uint8)
        np.testing.assert_array_equal(
            decoder.decode_batch(syndromes),
            per_shot_decode(decoder, syndromes),
        )


class TestEngineDeterminism:
    def test_run_worker_invariance(self, memory_setup):
        circuit, _, _, _ = memory_setup
        results = []
        for workers in (1, 4):
            engine = DecodingEngine(
                circuit, "mwpm", shard_shots=128, workers=workers
            )
            res = engine.run(700, seed=3)
            results.append((res.shots, res.failures, res.shards))
        assert results[0] == results[1]

    def test_run_repeatable(self, memory_setup):
        circuit, _, _, _ = memory_setup
        engine = DecodingEngine(circuit, "mwpm", shard_shots=128)
        a = engine.run(500, seed=5)
        b = engine.run(500, seed=5)
        assert (a.shots, a.failures) == (b.shots, b.failures)

    @pytest.mark.parametrize("method", ["run", "run_until", "collect"])
    def test_seed_sequence_object_is_reusable(self, method):
        # The engine spawns shard seeds from a copy of the caller's
        # SeedSequence, so passing one object twice draws the same shots
        # as passing a fresh equal sequence, and the object is untouched.
        circuit = memory_circuit(3, 3, 4e-3)
        with DecodingEngine(circuit, "mwpm", shard_shots=256) as engine:
            call = {
                "run": lambda seed: engine.run(2048, seed=seed),
                "run_until": lambda seed: engine.run_until(
                    20, max_shots=8192, seed=seed
                ),
                "collect": lambda seed: [
                    part.tolist() for part in engine.collect(2048, seed=seed)[:3]
                ],
            }[method]
            seq = np.random.SeedSequence(77)
            first, second = call(seq), call(seq)
            fresh = call(np.random.SeedSequence(77))
        assert first == second == fresh
        assert seq.n_children_spawned == 0

    def test_partial_last_shard(self, memory_setup):
        circuit, _, _, _ = memory_setup
        engine = DecodingEngine(circuit, "mwpm", shard_shots=128)
        res = engine.run(300, seed=5)
        assert res.shots == 300
        assert res.shards == 3

    def test_concurrent_inline_engines_keep_their_state(self):
        # The service runs jobs on threads; inline (workers=1) engines with
        # different circuits and decoders must not share shard state.  More
        # threads than cores and a short switch interval force interleaving.
        builder = transversal_cnot_experiment(3, 4, 0.004, [1, 2])
        engines = [
            DecodingEngine(memory_circuit(3, 3, 0.01), "mwpm", shard_shots=32),
            DecodingEngine(
                memory_circuit(5, 2, 0.005, basis="X"), "union_find",
                shard_shots=32,
            ),
            DecodingEngine(
                builder.circuit, "sequential",
                detector_meta=builder.detector_meta, observable=None,
                shard_shots=32,
            ),
        ]
        serial = [engine.run(2000, seed=17) for engine in engines]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(engines)) as pool:
                futures = [pool.submit(e.run, 2000, seed=17) for e in engines]
                assert [f.result(timeout=120) for f in futures] == serial
        finally:
            sys.setswitchinterval(interval)

    def test_run_until_worker_invariance(self, memory_setup):
        circuit, _, _, _ = memory_setup
        results = []
        for workers in (1, 3):
            engine = DecodingEngine(
                circuit, "mwpm", shard_shots=64, workers=workers
            )
            res = engine.run_until(4, max_shots=20_000, seed=13)
            results.append((res.shots, res.failures, res.shards))
        assert results[0] == results[1]


class TestEarlyStop:
    def test_reaches_target_failures(self, memory_setup):
        circuit, _, _, _ = memory_setup
        engine = DecodingEngine(circuit, "mwpm", shard_shots=64)
        res = engine.run_until(4, max_shots=50_000, seed=17)
        assert res.failures >= 4
        assert res.shots < 50_000
        assert res.shots == res.shards * 64

    def test_noiseless_hits_shot_cap(self):
        engine = DecodingEngine(memory_circuit(3, 3, 0.0), "mwpm", shard_shots=64)
        res = engine.run_until(1, max_shots=200, seed=1)
        assert res.failures == 0
        assert res.shots == 200

    def test_invalid_arguments_rejected(self, memory_setup):
        circuit, _, _, _ = memory_setup
        engine = DecodingEngine(circuit, "mwpm")
        with pytest.raises(ValueError):
            engine.run_until(0, max_shots=100)
        with pytest.raises(ValueError):
            engine.run_until(1, max_shots=0)
        with pytest.raises(ValueError):
            DecodingEngine(circuit, "mwpm", shard_shots=0)
        with pytest.raises(ValueError):
            DecodingEngine(circuit, "mwpm", workers=0)


def _path_table_graph(case):
    """``(graph, logical)`` of one ``TestMWPMMatchers`` path-table case:
    its decoding graph and how many of its observables are logical."""
    kind, distance, arg = case.split("-")
    distance = int(distance[1:])
    if kind == "seq":
        builder = transversal_cnot_experiment(distance, 4, 1e-3, [1, 2])
        decoder = make_decoder(
            "sequential", extract_dem(builder.circuit),
            detector_meta=builder.detector_meta,
        )
        graph = getattr(decoder, f"_{arg}_decoder").graph
        return graph, decoder.num_observables
    if kind == "biased":
        bias = float(arg.split("_")[0][1:])
        noise = BiasedPauli(4e-3, bias=bias)
        circuit = memory_circuit(distance, distance, 4e-3, basis="X", noise=noise)
    else:
        circuit = memory_circuit(distance, distance, 1e-3, basis=kind[-1])
    dem = extract_dem(circuit)
    if case.endswith("uniform"):
        graph = DecodingGraph.from_dem_uniform(dem)
    else:
        graph = DecodingGraph.from_dem(dem)
    return graph, graph.num_observables


PATH_TABLE_CASES = [
    f"{kind}-d{d}-{weights}"
    for kind, d in [("memZ", 3), ("memZ", 5), ("memZ", 7), ("memX", 5), ("memX", 7)]
    for weights in ("dem", "uniform")
] + [
    f"biased-d5-b{bias}_{weights}"
    for bias in (1, 4, 16)
    for weights in ("dem", "uniform")
] + [f"seq-d{d}-{part}" for d in (3, 5, 7) for part in ("control", "target")]


class TestMWPMMatchers:
    @pytest.mark.parametrize("case", PATH_TABLE_CASES)
    def test_path_tables_match_networkx_dijkstra(self, case):
        # dist is exact; obs must agree wherever a matcher reads it: the
        # boundary column and the detector pairs with d(u, v) < d(u, B) +
        # d(v, B) (ties through the boundary are never read).
        graph, logical = _path_table_graph(case)
        decoder = MWPMDecoder(graph)
        dist, obs = networkx_path_tables(graph)
        np.testing.assert_array_equal(decoder._dist, dist)
        n = graph.num_detectors
        read = np.zeros(dist.shape, dtype=bool)
        read[:n, :n] = dist[:n, :n] < dist[:n, n, None] + dist[None, :n, n]
        read[:n, n] = True
        # The sequential control graph's pseudo-observables (remote target
        # flips) can differ between equal-weight bulk paths, which the two
        # Dijkstras break differently; its logical bits must agree.
        bits = (1 << logical) - 1
        ours = [int(mask) & bits for mask in decoder._obs[read]]
        assert ours == [int(mask) & bits for mask in obs[read]]

    def test_large_defect_count_matches_blossom_weight(self, memory_setup):
        # A 14-defect syndrome: the per-cluster matchings together must
        # weigh what the whole-syndrome blossom oracle's matching weighs.
        _, dem, _, _ = memory_setup
        graph = DecodingGraph.from_dem(dem)
        decoder = MWPMDecoder(graph)
        defects = list(range(14))
        syndrome = np.zeros(dem.num_detectors, dtype=np.uint8)
        syndrome[defects] = 1
        assert decoder.decode(syndrome).shape == (dem.num_observables,)
        dist = decoder._dist
        weight = 0.0
        ids, first, sizes, _ = decoder._split(*defect_lists(syndrome[None, :])[:2])
        for start, size in zip(first.tolist(), sizes.tolist()):
            cluster = ids[start:start + size].tolist()
            partner, _ = decoder._match_clusters(np.array([cluster]), np.array([size]))
            # Each pair once, from its lower end, plus the boundary matches.
            weight += sum(
                dist[u, v] for u, v in zip(cluster, partner[0].tolist())
                if v == BOUNDARY or v > u
            )
        blossom = decoder._match_blossom(defects)
        assert weight == pytest.approx(
            sum(dist[u, v] for u, v in blossom), rel=1e-9
        )


class TestMWPMOddDefectGuard:
    def _boundaryless_graph(self) -> DecodingGraph:
        # A 3-detector chain with no boundary edges: an odd defect count
        # admits no perfect matching.
        graph = DecodingGraph(num_detectors=3, num_observables=1)
        graph.add_mechanism((0, 1), 0.01, frozenset())
        graph.add_mechanism((1, 2), 0.01, frozenset({0}))
        return graph

    def test_odd_defects_without_boundary_raise(self):
        decoder = MWPMDecoder(self._boundaryless_graph())
        with pytest.raises(ValueError, match="not perfect"):
            decoder.decode(np.array([1, 1, 1], dtype=np.uint8))

    def test_even_defects_without_boundary_decode(self):
        decoder = MWPMDecoder(self._boundaryless_graph())
        assert decoder.decode(np.array([1, 0, 1], dtype=np.uint8))[0] == 1

    @pytest.mark.parametrize("defects", [(3,), (1, 3), (0, 1, 2, 3)])
    def test_defect_on_isolated_detector_raises(self, defects):
        # Detector 3 has no edge at all: no boundary path, no partner.
        graph = DecodingGraph(num_detectors=4, num_observables=1)
        graph.add_mechanism((0,), 0.01, frozenset())
        graph.add_mechanism((0, 1), 0.01, frozenset({0}))
        graph.add_mechanism((1, 2), 0.01, frozenset())
        decoder = MWPMDecoder(graph)
        syndrome = np.zeros(4, dtype=np.uint8)
        syndrome[list(defects)] = 1
        with pytest.raises(ValueError, match="not perfect"):
            decoder.decode(syndrome)
        with pytest.raises(ValueError, match="not perfect"):
            decoder.decode_batch(syndrome[None])
        with pytest.raises(ValueError, match="not perfect"):
            decoder.decode_packed(np.packbits(syndrome[None], axis=1), 4)

    def test_boundary_restores_odd_decoding(self):
        graph = self._boundaryless_graph()
        graph.add_mechanism((0,), 0.01, frozenset())
        decoder = MWPMDecoder(graph)
        # With a boundary path the odd syndrome decodes instead of raising.
        assert decoder.decode(np.array([1, 1, 1], dtype=np.uint8)).shape == (1,)


class TestMWPMSingleShot:
    """``decode(row)`` runs the batch path on one row: equal row for row."""

    def test_d5_traffic(self):
        circuit = memory_circuit(5, 5, 1e-3)
        sim = FrameSimulator(circuit, rng=np.random.default_rng(13))
        graph = DecodingGraph.from_dem(sim.detector_error_model())
        detectors, _ = sim.sample(3000)
        assert (detectors.sum(axis=1) > 2).sum() > 100
        batch = MWPMDecoder(graph).decode_batch(detectors)
        np.testing.assert_array_equal(
            per_shot_decode(MWPMDecoder(graph), detectors), batch
        )

    def test_sequential_transversal_cnot_traffic(self):
        # Both sequential passes, row by row through MWPMDecoder.decode,
        # must equal the sequential decoder's batch passes.
        builder = transversal_cnot_experiment(3, 4, 0.004, [1, 2])
        sim = FrameSimulator(builder.circuit, rng=np.random.default_rng(17))
        decoder = make_decoder(
            "sequential", sim.detector_error_model(),
            detector_meta=builder.detector_meta,
        )
        detectors, _ = sim.sample(400)
        num_obs = decoder.num_observables
        first = per_shot_decode(
            decoder._control_decoder, detectors[:, decoder._control_ids]
        )
        target = detectors[:, decoder._target_ids] ^ first[:, num_obs:]
        second = per_shot_decode(decoder._target_decoder, target)
        assert first[:, num_obs:].any() and second.any()
        expected = first[:, :num_obs] ^ second
        np.testing.assert_array_equal(decoder.decode_batch(detectors), expected)
        np.testing.assert_array_equal(per_shot_decode(decoder, detectors), expected)

    def _ring(self) -> DecodingGraph:
        # A 6-detector ring with no boundary: every cluster is the whole
        # syndrome and takes the blossom fallback.
        graph = DecodingGraph(num_detectors=6, num_observables=2)
        for i in range(6):
            graph.add_mechanism(
                (i, (i + 1) % 6), 0.01 * (i + 1), frozenset({i % 2})
            )
        return graph

    def test_boundaryless_graph(self):
        rows = np.array(
            [r for r in itertools.product((0, 1), repeat=6) if sum(r) % 2 == 0],
            dtype=np.uint8,
        )
        batch = MWPMDecoder(self._ring()).decode_batch(rows)
        np.testing.assert_array_equal(
            per_shot_decode(MWPMDecoder(self._ring()), rows), batch
        )
        assert batch.any()

    def test_odd_boundaryless_cluster_raises_through_decode_packed(self):
        decoder = MWPMDecoder(self._ring())
        packed = np.packbits(np.array([[1, 1, 1, 0, 0, 0]], dtype=np.uint8), axis=1)
        with pytest.raises(ValueError, match="not perfect"):
            decoder.decode_packed(packed, 6)


class TestUnionFindZeroWeight:
    def test_railed_probability_converges(self):
        # p = 0.5 rails the edge weight to ~4e-6; growth must not stall.
        dem = DetectorErrorModel(
            [
                ErrorMechanism(0.5, (0,), (0,)),
                ErrorMechanism(0.5, (0, 1), ()),
                ErrorMechanism(0.01, (1, 2), ()),
                ErrorMechanism(0.01, (2,), ()),
            ],
            3,
            1,
        )
        decoder = UnionFindDecoder(DecodingGraph.from_dem(dem))
        out = decoder.decode(np.array([1, 0, 0], dtype=np.uint8))
        assert out.shape == (1,)

    def test_convergence_error_reports_cluster_state(self):
        # Detector 1 has no edge, so a defect there can never become valid.
        graph = DecodingGraph(num_detectors=2, num_observables=1)
        graph.add_mechanism((0,), 0.01, frozenset({0}))
        decoder = UnionFindDecoder(graph)
        with pytest.raises(RuntimeError, match="invalid clusters"):
            decoder.decode(np.array([0, 1], dtype=np.uint8))


class TestEngineAnalysisIntegration:
    def test_any_observable_failure_mode(self):
        builder = transversal_cnot_experiment(3, 4, 0.004, [1, 2])
        engine = DecodingEngine(
            builder.circuit,
            "sequential",
            detector_meta=builder.detector_meta,
            observable=None,
            shard_shots=128,
        )
        res = engine.run(256, seed=3)
        assert res.shots == 256
        assert 0 <= res.failures <= 256

    def test_prebuilt_decoder_accepted(self, memory_setup):
        circuit, dem, _, _ = memory_setup
        decoder = make_decoder("union_find", dem)
        engine = DecodingEngine(circuit, decoder, shard_shots=128)
        res = engine.run(256, seed=3)
        assert res.shots == 256


class TestPackedPipeline:
    """The packed engine must agree bit for bit with the reference run."""

    @pytest.mark.parametrize("distance,rounds,p,shots,seed,shard_shots,workers", [
        pytest.param(3, 3, 0.005, 700, 3, 128, 1, id="1"),
        pytest.param(3, 3, 0.005, 700, 3, 128, 2, id="2"),
        # The d=7 point of the packed-engine speed gates, per push (1500)
        # and weekly (2048).
        pytest.param(7, 8, 1e-3, 1500, 29, 4096, 1, id="d7-1500",
                     marks=pytest.mark.slow),
        pytest.param(7, 8, 1e-3, 2048, 29, 4096, 1, id="d7-2048",
                     marks=pytest.mark.slow),
    ])
    def test_packed_matches_unpacked_engine(
        self, distance, rounds, p, shots, seed, shard_shots, workers
    ):
        circuit = memory_circuit(distance, rounds, p)
        with DecodingEngine(
            circuit, "mwpm", shard_shots=shard_shots, workers=workers
        ) as engine:
            res = engine.run(shots, seed=seed)
        reference = reference_run(
            circuit, make_decoder("mwpm", extract_dem(circuit)), shots, seed,
            shard_shots=shard_shots,
        )
        assert (res.shots, res.failures, res.shards) == reference

    def test_packed_matches_unpacked_any_observable(self):
        builder = transversal_cnot_experiment(3, 4, 0.004, [1, 2])
        engine = DecodingEngine(
            builder.circuit,
            "sequential",
            detector_meta=builder.detector_meta,
            observable=None,
            shard_shots=128,
        )
        res = engine.run(256, seed=3)
        reference = reference_run(
            builder.circuit, engine.decoder, 256, 3, shard_shots=128,
            observable=None,
        )
        assert (res.shots, res.failures, res.shards) == reference

    def test_decode_packed_matches_decode_batch(self, memory_setup):
        _, dem, detectors, _ = memory_setup
        decoder = make_decoder("mwpm", dem)
        packed = np.packbits(detectors, axis=1)
        np.testing.assert_array_equal(
            decoder.decode_packed(packed, dem.num_detectors),
            decoder.decode_batch(detectors),
        )
        np.testing.assert_array_equal(
            decoder.decode_packed(packed, dem.num_detectors),
            per_shot_decode(decoder, detectors),
        )

    def test_collect_matches_reference_sampling(self, memory_setup):
        circuit, _, _, _ = memory_setup
        engine = DecodingEngine(circuit, "mwpm", shard_shots=128)
        batch = engine.collect(300, seed=9)
        assert batch.shots == 300
        assert batch.observables.shape == (300, circuit.num_observables)
        assert batch.log_weights is None
        # One sorted (shot, detector) list over all shards, each pair once.
        keys = batch.shot * circuit.num_detectors + batch.detector
        assert (np.diff(keys) > 0).all()
        root = np.random.SeedSequence(9)
        parts = [
            reference_sample(circuit, size, np.random.default_rng(child))
            for size, child in zip([128, 128, 44], root.spawn(3))
        ]
        np.testing.assert_array_equal(
            dense_rows(batch.shot, batch.detector, 300, circuit.num_detectors),
            np.concatenate([part[0] for part in parts]),
        )
        np.testing.assert_array_equal(
            batch.observables, np.concatenate([part[1] for part in parts])
        )

    def test_collect_worker_invariance(self, memory_setup):
        circuit, _, _, _ = memory_setup
        batches = []
        for workers in (1, 2):
            with DecodingEngine(
                circuit, "mwpm", shard_shots=64, workers=workers
            ) as engine:
                batches.append(engine.collect(300, seed=21))
        np.testing.assert_array_equal(batches[0].shot, batches[1].shot)
        np.testing.assert_array_equal(batches[0].detector, batches[1].detector)
        np.testing.assert_array_equal(
            batches[0].observables, batches[1].observables
        )

    def test_zero_shots(self, memory_setup):
        circuit, _, _, _ = memory_setup
        with DecodingEngine(circuit, "mwpm") as engine:
            batch = engine.collect(0, seed=17)
        assert batch.shot.shape == batch.detector.shape == (0,)
        assert batch.observables.shape == (0, circuit.num_observables)


def assert_decomposed_agrees(graph, detectors, observables, slack):
    """Cluster-decomposed and whole-syndrome MWPM fail equally often,
    up to ``slack`` shots: both are exact, so only degenerate ties differ."""
    whole = WholeSyndromeMWPM(graph).decode_batch(detectors)
    split = MWPMDecoder(graph).decode_batch(detectors)
    whole_failures = int((whole[:, 0] ^ observables[:, 0]).sum())
    split_failures = int((split[:, 0] ^ observables[:, 0]).sum())
    assert abs(whole_failures - split_failures) <= slack


class TestMWPMDecomposition:
    """Cluster decomposition must stay exact and batch-invariant."""

    def test_decomposed_agrees_with_whole_syndrome_failures(self, memory_setup):
        _, dem, detectors, observables = memory_setup
        assert_decomposed_agrees(DecodingGraph.from_dem(dem), detectors, observables, 2)

    def test_batch_decode_matches_scalar_decode(self, memory_setup):
        _, dem, detectors, _ = memory_setup
        decoder = make_decoder("mwpm", dem)
        batch = decoder.decode_batch(detectors)
        scalar = np.stack([decoder.decode(row) for row in detectors[:100]])
        np.testing.assert_array_equal(scalar, batch[:100])

    def test_cluster_cache_reused(self, memory_setup):
        _, dem, detectors, _ = memory_setup
        decoder = make_decoder("mwpm", dem)
        first = decoder.decode_batch(detectors)
        assert decoder._memo.keys.size > 0
        again = decoder.decode_batch(detectors)
        np.testing.assert_array_equal(first, again)

    def test_cache_runaway_clear_mid_batch_recovers(self, memory_setup, monkeypatch):
        # A tiny cache limit forces wholesale clears of the memo; the
        # predictions must be unchanged and the memo must stay bounded.
        import repro.decoder.mwpm as mwpm_module

        _, dem, detectors, _ = memory_setup
        reference = MWPMDecoder(DecodingGraph.from_dem(dem)).decode_batch(detectors)
        monkeypatch.setattr(mwpm_module, "_CLUSTER_CACHE_LIMIT", 2)
        small_cache = MWPMDecoder(DecodingGraph.from_dem(dem))
        np.testing.assert_array_equal(
            small_cache.decode_batch(detectors), reference
        )
        assert small_cache._memo.keys.size <= 3

    def test_decompose_raises_on_unexplainable_syndrome(self):
        graph = DecodingGraph(num_detectors=3, num_observables=1)
        graph.add_mechanism((0, 1), 0.01, frozenset())
        graph.add_mechanism((1, 2), 0.01, frozenset({0}))
        decoder = MWPMDecoder(graph)
        with pytest.raises(ValueError, match="not perfect"):
            decoder.decode(np.array([1, 1, 1], dtype=np.uint8))


class TestPersistentPool:
    def test_pool_survives_across_runs(self, memory_setup):
        circuit, _, _, _ = memory_setup
        with DecodingEngine(
            circuit, "mwpm", shard_shots=128, workers=2
        ) as engine:
            engine.run(256, seed=1)
            pool = engine._pool
            assert pool is not None
            engine.run(256, seed=2)
            assert engine._pool is pool  # reused, not respawned
            engine.run_until(1, max_shots=512, seed=3)
            assert engine._pool is pool
        assert engine._pool is None  # context exit released it

    def test_close_idempotent_and_restartable(self, memory_setup):
        circuit, _, _, _ = memory_setup
        engine = DecodingEngine(circuit, "mwpm", shard_shots=128, workers=2)
        first = engine.run(256, seed=7)
        engine.close()
        engine.close()
        again = engine.run(256, seed=7)  # pool respawns transparently
        assert (first.shots, first.failures) == (again.shots, again.failures)
        engine.close()


@pytest.mark.slow
class TestEngineSlow:
    """Larger-scale consistency runs, excluded from the tier-1 default."""

    def test_low_p_dedup_matches_naive_at_scale(self):
        circuit = memory_circuit(5, 6, 1e-3)
        sim = FrameSimulator(circuit, rng=np.random.default_rng(31))
        dem = sim.detector_error_model()
        decoder = make_decoder("mwpm", dem)
        detectors, _ = sim.sample(4000)
        np.testing.assert_array_equal(
            decoder.decode_batch(detectors),
            per_shot_decode(decoder, detectors),
        )

    @pytest.mark.parametrize("distance,shots", [(3, 10_000), (5, 10_000), (7, 4_000)])
    def test_decomposed_agrees_with_whole_syndrome_failures(self, distance, shots):
        # The d=5 rows are the ones TestFullGates times MWPM on.
        circuit = memory_circuit(distance, distance + 1, 1e-3)
        sim = FrameSimulator(circuit, rng=np.random.default_rng(47))
        detectors, observables = sim.sample(shots)
        assert_decomposed_agrees(
            DecodingGraph.from_dem(sim.detector_error_model()),
            detectors, observables, max(5, shots // 500),
        )

    @pytest.mark.parametrize("p,shots,seed,shard_shots", [
        (2e-3, 4096, 19, 512),
        (1e-3, 10_000, 11, 1024),
    ])
    def test_worker_invariance_d5(self, p, shots, seed, shard_shots):
        circuit = memory_circuit(5, 6, p)
        outcomes = []
        for workers in (1, 4):
            with DecodingEngine(
                circuit, "mwpm", shard_shots=shard_shots, workers=workers
            ) as engine:
                res = engine.run(shots, seed=seed)
            outcomes.append((res.shots, res.failures, res.shards))
        assert outcomes[0] == outcomes[1]
