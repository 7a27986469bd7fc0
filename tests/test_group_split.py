"""Tests for the shared defect-group split of :mod:`repro.decoder.base`.

MWPM and union-find split every row into defect groups with one
:func:`~repro.decoder.base.split_groups`, each with its own pair
predicate.  The split tests its pairs in chunks of ``_SPLIT_PAIRS``; the
chunk bound must never change a group.
"""

import numpy as np
import pytest

from repro.decoder import base
from repro.decoder.base import _ragged_ranges, defect_lists, split_groups
from repro.decoder.graph import DecodingGraph
from repro.decoder.mwpm import MWPMDecoder
from repro.decoder.union_find import UnionFindDecoder
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit


@pytest.fixture(scope="module")
def d5():
    """A d=5 graph and noisy rows, plus rows of 0 and 1 defects."""
    sim = FrameSimulator(memory_circuit(5, 5, 6e-3), rng=np.random.default_rng(41))
    graph = DecodingGraph.from_dem(sim.detector_error_model())
    detectors = np.asarray(sim.sample(64)[0], dtype=np.uint8)
    single = np.zeros((2, graph.num_detectors), dtype=np.uint8)
    single[1, 17] = 1
    return graph, np.vstack([single[:1], detectors, single])


def _split_of(decoder, rows):
    return tuple(a.copy() for a in decoder._split(*defect_lists(rows)[:2]))


class TestRaggedRanges:
    def test_empty_input_gives_an_empty_array(self):
        empty = np.zeros(0, dtype=np.int64)
        out = _ragged_ranges(empty, empty, 0)
        assert out.shape == (0,) and out.dtype == np.int64

    def test_concatenates_ranges(self):
        out = _ragged_ranges(np.array([3, 10, 4]), np.array([2, 1, 3]), 6)
        assert out.tolist() == [3, 4, 10, 4, 5, 6]


class TestChunkedSplit:
    @pytest.mark.parametrize("build", [MWPMDecoder, UnionFindDecoder], ids=["mwpm", "union_find"])
    @pytest.mark.parametrize("pairs", [1, 3, 7])
    def test_chunk_bound_never_changes_groups(self, d5, build, pairs, monkeypatch):
        graph, rows = d5
        decoder = build(graph)
        want = _split_of(decoder, rows)
        counts = rows.sum(axis=1)
        # Rows of 0 and 1 defects, and rows with more pairs than a chunk
        # holds, so their pairs cross chunk borders.
        assert counts.min() == 0 and (counts == 1).any()
        assert (counts * (counts - 1) // 2 > pairs).any()
        monkeypatch.setattr(base, "_SPLIT_PAIRS", pairs)
        got = _split_of(decoder, rows)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)
        assert np.array_equal(decoder.decode_batch(rows), build(graph).decode_batch(rows))

    @pytest.mark.parametrize("build", [MWPMDecoder, UnionFindDecoder], ids=["mwpm", "union_find"])
    def test_batch_without_defects(self, d5, build, monkeypatch):
        graph, _ = d5
        monkeypatch.setattr(base, "_SPLIT_PAIRS", 2)
        decoder = build(graph)
        rows = np.zeros((3, graph.num_detectors), dtype=np.uint8)
        ids, first, sizes, row = decoder._split(*defect_lists(rows)[:2])
        assert ids.size == first.size == sizes.size == row.size == 0
        assert not decoder.decode_batch(rows).any()

    def test_groups_are_components_listed_by_row(self):
        # Ids within two of each other link; rows never join.
        rows = np.zeros((3, 12), dtype=np.uint8)
        rows[0, [0, 2, 4, 9]] = 1
        rows[2, [1, 5, 6, 11]] = 1
        ids, first, sizes, row = split_groups(*defect_lists(rows)[:2], lambda u, v: v - u <= 2, 2)
        groups = [(int(r), ids[f:f + s].tolist()) for f, s, r in zip(first, sizes, row)]
        assert groups == [(0, [0, 2, 4]), (0, [9]), (2, [1]), (2, [5, 6]), (2, [11])]
