"""Edge cases of DEM merging and decoding-graph lowering.

Covers ``DetectorErrorModel.merged`` (XOR convolution, zero-probability
drops, symptom separation), ``DecodingGraph.edge_between`` /
``add_mechanism`` parallel-edge handling, the ``edge_table`` layout the
decoders read, and ``from_dem_uniform``.
"""

import math

import numpy as np
import pytest

from repro.decoder.graph import BOUNDARY, DecodingGraph
from repro.noise.dem import DetectorErrorModel, ErrorMechanism


def xor_conv(p1, p2):
    return p1 * (1 - p2) + p2 * (1 - p1)


class TestMerged:
    def test_identical_symptoms_xor_convolve(self):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.1, (0, 1), ()), ErrorMechanism(0.2, (0, 1), ())],
            num_detectors=2, num_observables=0,
        )
        merged = dem.merged()
        assert len(merged.mechanisms) == 1
        assert merged.mechanisms[0].probability == pytest.approx(xor_conv(0.1, 0.2))

    def test_differing_observables_stay_separate(self):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.1, (0,), ()), ErrorMechanism(0.2, (0,), (0,))],
            num_detectors=1, num_observables=1,
        )
        assert len(dem.merged().mechanisms) == 2

    def test_zero_probability_mechanisms_dropped(self):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.0, (0,), ()), ErrorMechanism(0.3, (1,), ())],
            num_detectors=2, num_observables=0,
        )
        merged = dem.merged()
        assert [m.detectors for m in merged.mechanisms] == [(1,)]

    def test_three_way_merge_matches_pairwise(self):
        probs = (0.1, 0.2, 0.3)
        dem = DetectorErrorModel(
            [ErrorMechanism(p, (0,), ()) for p in probs],
            num_detectors=1, num_observables=0,
        )
        expected = xor_conv(xor_conv(probs[0], probs[1]), probs[2])
        assert dem.merged().mechanisms[0].probability == pytest.approx(expected)

    def test_empty_dem_merges_to_empty(self):
        dem = DetectorErrorModel([], num_detectors=0, num_observables=0)
        merged = dem.merged()
        assert merged.mechanisms == []
        assert merged.num_detectors == 0

    def test_counts_survive_merging(self):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.1, (0,), (1,))], num_detectors=3,
            num_observables=2,
        )
        merged = dem.merged()
        assert merged.num_detectors == 3
        assert merged.num_observables == 2


class TestEdgeBetween:
    def test_boundary_edge_lookup(self):
        graph = DecodingGraph(2, 0)
        graph.add_mechanism((0,), 0.01, frozenset())
        edge = graph.edge_between(0, BOUNDARY)
        assert edge is not None and edge.probability == 0.01
        assert graph.edge_between(1, BOUNDARY) is None

    def test_pair_edge_is_orientation_independent(self):
        graph = DecodingGraph(2, 0)
        graph.add_mechanism((0, 1), 0.02, frozenset())
        assert graph.edge_between(0, 1) is graph.edge_between(1, 0)

    def test_missing_edge_is_none(self):
        graph = DecodingGraph(3, 0)
        graph.add_mechanism((0, 1), 0.02, frozenset())
        assert graph.edge_between(0, 2) is None


class TestEdgeTable:
    def test_layout(self):
        graph = DecodingGraph(3, 2)
        graph.add_mechanism((2, 0), 0.01, frozenset({1}))
        graph.add_mechanism((1,), 0.02, frozenset({0, 1}))
        graph.add_mechanism((0, 1), 0.03, frozenset())
        table = graph.edge_table()
        assert table.node_count == 4
        # Edge order, ea <= eb, the boundary at index num_detectors.
        assert table.ea.tolist() == [0, 1, 0]
        assert table.eb.tolist() == [2, 3, 1]
        assert table.weight.tolist() == [e.weight for e in graph.edges]
        assert table.mask.dtype == np.int64 and table.mask.tolist() == [2, 3, 0]
        incident = [
            table.inc_edge[table.indptr[u]:table.indptr[u + 1]].tolist()
            for u in range(4)
        ]
        assert incident == [[0, 2], [1, 2], [0], [1]]

    def test_masks_beyond_int64_are_python_ints(self):
        graph = DecodingGraph(1, 70)
        graph.add_mechanism((0,), 0.01, frozenset({69}))
        table = graph.edge_table()
        assert table.mask.dtype == object and table.mask[0] == 1 << 69

    @pytest.mark.parametrize("detectors,observables,kind", [
        ((0, 5), frozenset(), "detector"),
        ((0,), frozenset({2}), "observable"),
    ])
    def test_out_of_range_index_rejected(self, detectors, observables, kind):
        graph = DecodingGraph(2, 1)
        graph.add_mechanism(detectors, 0.01, observables)
        with pytest.raises(ValueError, match=f"{kind} index . out of range"):
            graph.edge_table()


class TestAddMechanism:
    def test_parallel_edges_with_same_observables_merge(self):
        graph = DecodingGraph(2, 1)
        graph.add_mechanism((0, 1), 0.1, frozenset({0}))
        graph.add_mechanism((0, 1), 0.2, frozenset({0}))
        assert len(graph.edges) == 1
        assert graph.edge_between(0, 1).probability == pytest.approx(
            xor_conv(0.1, 0.2)
        )

    def test_conflicting_observables_keep_the_likelier(self):
        graph = DecodingGraph(2, 1)
        graph.add_mechanism((0, 1), 0.1, frozenset())
        graph.add_mechanism((0, 1), 0.3, frozenset({0}))
        edge = graph.edge_between(0, 1)
        assert edge.observables == frozenset({0})
        assert edge.probability == 0.3
        # An unlikelier conflicting mechanism is dropped.
        graph.add_mechanism((0, 1), 0.05, frozenset())
        assert graph.edge_between(0, 1).probability == 0.3

    def test_hyperedge_insert_rejected(self):
        graph = DecodingGraph(3, 0)
        with pytest.raises(ValueError, match="1 or 2 detectors"):
            graph.add_mechanism((0, 1, 2), 0.1, frozenset())

    def test_weight_is_llr_and_railed(self):
        graph = DecodingGraph(1, 0)
        graph.add_mechanism((0,), 0.01, frozenset())
        edge = graph.edge_between(0, BOUNDARY)
        assert edge.weight == pytest.approx(math.log(0.99 / 0.01))
        graph.add_mechanism((0,), 0.49999, frozenset())
        assert graph.edge_between(0, BOUNDARY).weight > 0


class TestFromDem:
    def test_empty_dem_lowers_to_empty_graph(self):
        graph = DecodingGraph.from_dem(
            DetectorErrorModel([], num_detectors=0, num_observables=0)
        )
        assert graph.edges == []

    def test_undetectable_mechanism_is_skipped(self):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.1, (), (0,)), ErrorMechanism(0.2, (0,), ())],
            num_detectors=1, num_observables=1,
        )
        graph = DecodingGraph.from_dem(dem)
        assert len(graph.edges) == 1
        assert graph.edge_between(0, BOUNDARY).probability == 0.2

    def test_from_dem_uniform_pins_probabilities_keeps_topology(self):
        dem = DetectorErrorModel(
            [
                ErrorMechanism(0.01, (0,), ()),
                ErrorMechanism(0.02, (0, 1), (0,)),
                ErrorMechanism(0.03, (1, 2), ()),
            ],
            num_detectors=3, num_observables=1,
        )
        weighted = DecodingGraph.from_dem(dem)
        uniform = DecodingGraph.from_dem_uniform(dem)
        assert {e.detectors for e in uniform.edges} == {
            e.detectors for e in weighted.edges
        }
        assert all(e.probability == 1e-3 for e in uniform.edges)
        # Observable masks come from the true DEM, not flattened away.
        assert uniform.edge_between(0, 1).observables == frozenset({0})

    def test_uniform_default_does_not_mutate_weighted_graph(self):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.25, (0,), ())], num_detectors=1,
            num_observables=0,
        )
        weighted = DecodingGraph.from_dem(dem)
        DecodingGraph.from_dem_uniform(dem)
        assert weighted.edge_between(0, BOUNDARY).probability == 0.25
