"""Tests for the decode-phase overhaul.

Covers the layers the overhaul added to the decode path:

* the batched union-find growth arena equals the sequential loop it
  replaced (``oracles.ReferenceUnionFind``) on every row whose
  sequential answer does not depend on processing order;
* MWPM's cluster path equals the <=2-defect closed form
  (``oracles.two_defect_mask``) on an exhaustive enumeration of such
  rows, and union-find's group path equals the whole-row arena, and the
  sequential oracle where it is order-insensitive, on the same
  enumeration;
* on graphs whose observable masks exceed int64, MWPM equals its
  whole-syndrome oracle and union-find's constructor rejects the graph;
* ``EngineResult`` stays float-exactly invariant across worker counts.

The vectorized ``_unmask_rows`` observable expansion is regression-tested
against the per-bit loop it replaced.
"""

import itertools

import numpy as np
import pytest
from oracles import ReferenceUnionFind, WholeSyndromeMWPM, per_shot_decode, two_defect_mask

from repro.decoder.base import _unmask_rows, defect_lists
from repro.decoder.engine import DecodingEngine
from repro.decoder.graph import INT64_OBSERVABLES, DecodingGraph
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
        oracle = ReferenceUnionFind(graph)
        insensitive = ~oracle.order_sensitive(unique)
        assert insensitive.mean() > 0.5
        arena = UnionFindDecoder(graph).decode_batch(unique)
        reference = oracle.decode_batch(unique)
        assert np.array_equal(arena[insensitive], reference[insensitive])

    def test_reference_oracle_matches_batched_decode(self, d3_setup):
        _, graph, detectors, _ = d3_setup
        per_shot = ReferenceUnionFind(graph)
        batched = UnionFindDecoder(graph)
        insensitive = ~per_shot.order_sensitive(detectors)
        assert np.array_equal(
            per_shot.decode_batch(detectors)[insensitive],
            batched.decode_batch(detectors)[insensitive],
        )

    def test_scalar_decode_matches_reference(self, d3_setup):
        _, graph, detectors, _ = d3_setup
        oracle = ReferenceUnionFind(graph)
        row = next(r for r in detectors if r.any() and not oracle.trace(r)[1])
        assert np.array_equal(UnionFindDecoder(graph).decode(row), oracle.decode(row))


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

    def test_python_int_masks_beyond_int64(self):
        masks = [(1 << 69) | (1 << 65) | 1, 0, (1 << 70) - 1]
        expected = np.array(
            [[(mask >> bit) & 1 for bit in range(70)] for mask in masks],
            dtype=np.uint8,
        )
        assert np.array_equal(_unmask_rows(masks, 70), expected)


class TestSparseFastPath:
    """Rows of <= 2 defects: the decoders equal their closed forms exactly."""

    def test_mwpm_exhaustive_two_defect_certification(self, d3_setup):
        _, graph, _, _ = d3_setup
        decoder = MWPMDecoder(graph)
        rows = _sparse_rows(graph.num_detectors)
        masks = [two_defect_mask(decoder, np.flatnonzero(row).tolist()) for row in rows]
        assert None not in masks
        expected = _unmask_rows(masks, graph.num_observables)
        assert np.array_equal(decoder.decode_batch(rows), expected)

    def test_union_find_exhaustive_certification(self, d3_setup):
        # Union-find has no tables: <=2-defect rows are one or two groups
        # served from its group memo, checked here against the whole-row
        # arena, and against the sequential oracle where it is
        # order-insensitive.
        _, graph, _, _ = d3_setup
        decoder = UnionFindDecoder(graph)
        rows = _sparse_rows(graph.num_detectors)
        fast = decoder.decode_batch(rows)
        whole = _unmask_rows(decoder._arena_rows(*defect_lists(rows))[0], graph.num_observables)
        assert np.array_equal(fast, whole)
        oracle = ReferenceUnionFind(graph)
        insensitive = ~oracle.order_sensitive(rows)
        assert np.array_equal(fast[insensitive], oracle.decode_batch(rows)[insensitive])

    @pytest.mark.parametrize(
        "decoder_cls, num_obs",
        [(MWPMDecoder, 70), (UnionFindDecoder, 70), (MWPMDecoder, 63), (UnionFindDecoder, 63)],
        ids=["mwpm", "union_find", "mwpm-63", "union_find-63"],
    )
    def test_masks_wider_than_int64(self, decoder_cls, num_obs):
        # Past INT64_OBSERVABLES (62) masks are Python ints; bit 62 or 65
        # is the highest set here.  MWPM decodes such graphs; union-find's
        # masks are int64, so its constructor rejects them, naming the cap.
        top = 65 if num_obs == 70 else 62
        graph = DecodingGraph(num_detectors=2, num_observables=num_obs)
        graph.add_mechanism((0, 1), 0.01, frozenset({top}))
        graph.add_mechanism((0,), 0.01, frozenset({1}))
        if decoder_cls is UnionFindDecoder:
            with pytest.raises(ValueError, match=f"at most {INT64_OBSERVABLES} observables"):
                decoder_cls(graph)
            return
        decoder = decoder_cls(graph)
        assert np.flatnonzero(decoder.decode(np.array([1, 1]))).tolist() == [top]
        rows = _sparse_rows(2)
        expected = per_shot_decode(WholeSyndromeMWPM(graph), rows)
        assert np.array_equal(decoder.decode_batch(rows), expected)


class TestEngineInvariance:
    def test_engine_results_invariant_under_workers(self, d3_setup):
        """workers=1 vs workers=4: float-exact EngineResults."""
        circuit, _, _, _ = d3_setup
        results = {}
        for workers in (1, 4):
            with DecodingEngine(
                circuit, "mwpm", shard_shots=256, workers=workers
            ) as engine:
                results[workers] = engine.run(2000, seed=5)
        assert results[4] == results[1], results
