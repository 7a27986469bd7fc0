"""Tests for the decode-phase overhaul.

Covers the four layers the overhaul added to the decode path:

* the batched union-find growth arena is bit-identical to the per-shot
  reference loop it replaced (``batched=False``), row for row;
* the sparse <=2-defect fast path (MWPM's closed-form table lookups
  through ``BatchDecoder._decode_unique_rows``) is certified against the
  full decoder on exhaustive enumerations, and union-find's group path
  against its reference on the same enumeration;
* the cross-batch syndrome cache serves bit-identical rows, keys on the
  decoder/graph content fingerprint, respects ``clear_caches()`` /
  ``caching_disabled()`` / ``REPRO_SYNDROME_CACHE=0``, and leaves
  ``EngineResult`` float-exactly invariant across worker counts and
  cache settings;
* the shared-memory ``collect`` transport is bit-identical to the pickle
  baseline, keeps its tables valid after the engine closes, and leaks no
  ``/dev/shm`` segments.

The vectorized ``_unmask_rows`` observable expansion is regression-tested
against the per-bit loop it replaced.
"""

import gc
import itertools
import os

import numpy as np
import pytest

from repro.core.cache import cache_stats, caching_disabled, clear_caches
from repro.decoder.base import _unmask_rows
from repro.decoder.cache import SyndromeCache, cache_enabled, syndrome_cache
from repro.decoder.engine import DecodingEngine
from repro.decoder.graph import DecodingGraph
from repro.decoder.mwpm import MWPMDecoder
from repro.decoder.union_find import UnionFindDecoder
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit


@pytest.fixture(scope="module")
def d3_setup():
    """d=3 memory circuit, its graph, and a sampled syndrome batch."""
    circuit = memory_circuit(3, 3, 0.004)
    sim = FrameSimulator(circuit, rng=np.random.default_rng(19))
    graph = DecodingGraph.from_dem(sim.detector_error_model())
    detectors, observables = sim.sample(400)
    return circuit, graph, detectors.astype(np.uint8), observables


def _unique_rows(detectors):
    return np.unique(detectors, axis=0)


def _sparse_rows(num_detectors, max_defects=2):
    """Every syndrome with 0, 1, or 2 defects, as a dense uint8 batch."""
    rows = [np.zeros(num_detectors, dtype=np.uint8)]
    for i in range(num_detectors):
        row = np.zeros(num_detectors, dtype=np.uint8)
        row[i] = 1
        rows.append(row)
    if max_defects >= 2:
        for i, j in itertools.combinations(range(num_detectors), 2):
            row = np.zeros(num_detectors, dtype=np.uint8)
            row[i] = row[j] = 1
            rows.append(row)
    return np.stack(rows)


class TestBatchedUnionFind:
    @pytest.mark.parametrize("distance", [3, 5])
    def test_arena_bit_identical_to_reference(self, distance):
        circuit = memory_circuit(distance, distance, 0.003)
        sim = FrameSimulator(circuit, rng=np.random.default_rng(23))
        graph = DecodingGraph.from_dem(sim.detector_error_model())
        detectors, _ = sim.sample(600)
        unique = _unique_rows(detectors.astype(np.uint8))
        batched = UnionFindDecoder(graph)
        arena = batched._decode_unique(unique)
        reference = np.stack(
            [batched._decode_reference(row) for row in unique]
        )
        assert np.array_equal(arena, reference)

    def test_batched_flag_selects_reference_loop(self, d3_setup):
        _, graph, detectors, _ = d3_setup
        unique = _unique_rows(detectors)
        per_shot = UnionFindDecoder(graph, batched=False)
        batched = UnionFindDecoder(graph)
        assert np.array_equal(
            per_shot._decode_unique(unique), batched._decode_unique(unique)
        )

    def test_scalar_decode_matches_reference(self, d3_setup):
        _, graph, detectors, _ = d3_setup
        batched = UnionFindDecoder(graph)
        row = next(r for r in detectors if r.any())
        assert np.array_equal(
            batched.decode(row), batched._decode_reference(row)
        )


class TestUnmaskRows:
    @pytest.mark.parametrize("num_obs", [1, 7, 62])
    def test_matches_per_bit_loop(self, num_obs):
        rng = np.random.default_rng(31)
        masks = rng.integers(
            0, 1 << num_obs, size=64, dtype=np.int64
        )
        expected = np.zeros((masks.size, num_obs), dtype=np.uint8)
        for i, mask in enumerate(masks):
            for bit in range(num_obs):
                expected[i, bit] = (int(mask) >> bit) & 1
        assert np.array_equal(_unmask_rows(masks, num_obs), expected)

    def test_zero_observables(self):
        out = _unmask_rows(np.zeros(5, dtype=np.int64), 0)
        assert out.shape == (5, 0)


class TestSparseFastPath:
    """The <=2-defect closed forms must equal the full decoders exactly."""

    def test_mwpm_exhaustive_two_defect_certification(self, d3_setup):
        _, graph, _, _ = d3_setup
        decoder = MWPMDecoder(graph)
        rows = _sparse_rows(graph.num_detectors)
        assert decoder._sparse_tables() is not None
        fast = decoder._decode_unique_rows(rows)
        full = decoder._decode_unique(rows)
        assert np.array_equal(fast, full)

    def test_union_find_exhaustive_certification(self, d3_setup):
        # Union-find has no tables: <=2-defect rows are one or two groups
        # served from its group memo, checked here against the reference.
        _, graph, _, _ = d3_setup
        decoder = UnionFindDecoder(graph)
        rows = _sparse_rows(graph.num_detectors)
        fast = decoder._decode_unique_rows(rows)
        reference = np.stack([decoder._decode_reference(row) for row in rows])
        assert np.array_equal(fast, reference)

    def test_blossom_matcher_opts_out(self, d3_setup):
        _, graph, _, _ = d3_setup
        assert MWPMDecoder(graph, matcher="blossom")._sparse_tables() is None


class TestSyndromeCacheUnit:
    def test_lru_eviction_order(self):
        cache = SyndromeCache(capacity=2)
        cache.put("t", b"a", b"1")
        cache.put("t", b"b", b"2")
        assert cache.get("t", b"a") == b"1"  # refreshes 'a'
        cache.put("t", b"c", b"3")  # evicts 'b', the LRU entry
        assert cache.get("t", b"b") is None
        assert cache.get("t", b"a") == b"1"
        assert cache.get("t", b"c") == b"3"
        info = cache.cache_info()
        assert (info.maxsize, info.currsize) == (2, 2)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            SyndromeCache(capacity=0)


class TestSyndromeCacheIntegration:
    def _packed_unique(self, detectors):
        return np.packbits(_unique_rows(detectors), axis=1)

    def test_repeat_decode_hits_bit_identical(self, d3_setup):
        _, graph, detectors, _ = d3_setup
        clear_caches()
        decoder = MWPMDecoder(graph)
        packed = self._packed_unique(detectors)
        num_det = graph.num_detectors
        before = syndrome_cache().cache_info()
        first = decoder.decode_packed(packed, num_det)
        mid = syndrome_cache().cache_info()
        assert mid.misses - before.misses == packed.shape[0]
        second = decoder.decode_packed(packed, num_det)
        after = syndrome_cache().cache_info()
        assert after.hits - mid.hits == packed.shape[0]
        assert np.array_equal(first, second)
        with caching_disabled():
            uncached = decoder.decode_packed(packed, num_det)
        assert np.array_equal(first, uncached)

    def test_registered_and_emptied_by_clear_caches(self, d3_setup):
        _, graph, detectors, _ = d3_setup
        decoder = MWPMDecoder(graph)
        packed = self._packed_unique(detectors)
        decoder.decode_packed(packed, graph.num_detectors)
        assert "repro.decoder.syndrome" in cache_stats()
        assert syndrome_cache().cache_info().currsize > 0
        clear_caches()
        assert syndrome_cache().cache_info().currsize == 0
        # Still correct (repopulates) after the flush.
        again = decoder.decode_packed(packed, graph.num_detectors)
        with caching_disabled():
            assert np.array_equal(
                again, decoder.decode_packed(packed, graph.num_detectors)
            )

    def test_token_fingerprints_graph_and_config(self, d3_setup):
        _, graph, _, _ = d3_setup
        # A different edge probability is a different decoding graph, so
        # the digest -- and with it every cache key -- must change.
        other = DecodingGraph(graph.num_detectors, graph.num_observables)
        for i, edge in enumerate(graph.edges):
            p = edge.probability * (1.5 if i == 0 else 1.0)
            other.add_mechanism(edge.detectors, p, edge.observables)
        assert graph.digest() != other.digest()
        assert (
            MWPMDecoder(graph)._cache_token()
            != MWPMDecoder(other)._cache_token()
        )
        # Decoder configuration is part of the fingerprint too.
        assert (
            MWPMDecoder(graph)._cache_token()
            != MWPMDecoder(graph, decompose=False)._cache_token()
        )
        assert (
            UnionFindDecoder(graph)._cache_token()
            != UnionFindDecoder(graph, batched=False)._cache_token()
        )
        assert (
            MWPMDecoder(graph)._cache_token()
            != UnionFindDecoder(graph)._cache_token()
        )

    def test_cross_decoder_isolation(self, d3_setup):
        """Cached MWPM rows must never be served to union-find."""
        _, graph, detectors, _ = d3_setup
        clear_caches()
        packed = self._packed_unique(detectors)
        num_det = graph.num_detectors
        MWPMDecoder(graph).decode_packed(packed, num_det)
        before = syndrome_cache().cache_info()
        uf = UnionFindDecoder(graph)
        cached = uf.decode_packed(packed, num_det)
        after = syndrome_cache().cache_info()
        assert after.misses - before.misses == packed.shape[0]
        assert after.hits == before.hits
        with caching_disabled():
            assert np.array_equal(cached, uf.decode_packed(packed, num_det))

    def test_env_switch_disables_cache(self, d3_setup, monkeypatch):
        _, graph, detectors, _ = d3_setup
        monkeypatch.setenv("REPRO_SYNDROME_CACHE", "0")
        assert not cache_enabled()
        decoder = MWPMDecoder(graph)
        packed = self._packed_unique(detectors)
        before = syndrome_cache().cache_info()
        out = decoder.decode_packed(packed, graph.num_detectors)
        after = syndrome_cache().cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        monkeypatch.delenv("REPRO_SYNDROME_CACHE")
        assert np.array_equal(
            out, decoder.decode_packed(packed, graph.num_detectors)
        )

    def test_engine_results_invariant_under_workers_and_cache(
        self, d3_setup, monkeypatch
    ):
        """jobs=1 vs jobs=4, cache on vs off: float-exact EngineResults."""
        circuit, _, _, _ = d3_setup
        results = {}
        for cache_env, workers in itertools.product(("1", "0"), (1, 4)):
            monkeypatch.setenv("REPRO_SYNDROME_CACHE", cache_env)
            clear_caches()
            with DecodingEngine(
                circuit, "mwpm", shard_shots=256, workers=workers
            ) as engine:
                results[(cache_env, workers)] = engine.run(2000, seed=5)
        reference = results[("1", 1)]
        for key, result in results.items():
            assert result == reference, (key, result, reference)


class TestSharedMemoryTransport:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_shm_bit_identical_to_pickle(self, d3_setup, workers):
        circuit, _, _, _ = d3_setup
        with DecodingEngine(
            circuit, "mwpm", shard_shots=128, workers=workers,
            transport="pickle",
        ) as engine:
            det_ref, obs_ref = engine.collect(1000, seed=17)
        with DecodingEngine(
            circuit, "mwpm", shard_shots=128, workers=workers,
            transport="shm",
        ) as engine:
            det_shm, obs_shm = engine.collect(1000, seed=17)
        assert np.array_equal(det_ref, det_shm)
        assert np.array_equal(obs_ref, obs_shm)

    def test_tables_survive_engine_close(self, d3_setup):
        circuit, _, _, _ = d3_setup
        engine = DecodingEngine(circuit, "mwpm", shard_shots=128, workers=2)
        detectors, observables = engine.collect(500, seed=17)
        engine.close()
        del engine
        gc.collect()
        assert detectors.shape[0] == 500
        assert int(detectors.sum()) >= 0 and int(observables.sum()) >= 0
        # A derived view keeps the segment alive through the base chain.
        tail = detectors[400:]
        del detectors
        gc.collect()
        assert tail.shape[0] == 100
        assert int(tail.sum()) >= 0

    def test_no_dev_shm_leak(self, d3_setup):
        circuit, _, _, _ = d3_setup
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        gc.collect()
        before = set(os.listdir("/dev/shm"))
        with DecodingEngine(circuit, "mwpm", shard_shots=128) as engine:
            detectors, observables = engine.collect(400, seed=17)
            del detectors, observables
        gc.collect()
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked

    def test_invalid_transport_rejected(self, d3_setup):
        circuit, _, _, _ = d3_setup
        with pytest.raises(ValueError, match="transport"):
            DecodingEngine(circuit, "mwpm", transport="carrier-pigeon")

    def test_zero_shots(self, d3_setup):
        circuit, _, _, _ = d3_setup
        with DecodingEngine(circuit, "mwpm") as engine:
            detectors, observables = engine.collect(0, seed=17)
        assert detectors.shape[0] == 0 and observables.shape[0] == 0
