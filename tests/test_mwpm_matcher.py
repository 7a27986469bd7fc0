"""Exactness of MWPM's batch cluster matcher against the networkx oracle.

Every cluster solve -- assignment relaxation, branch-and-bound, or the
``_match_blossom`` fallback -- must return a matching that covers each defect once
and weighs exactly (to 1e-9 relative) the minimum found by networkx's
``max_weight_matching`` (:func:`oracles.min_matching_weight`).  Clusters
come from importance-sampled d=5/d=7 traffic, from uniform-weight MWPM
under biased noise (where ties are common), and from random integer
graphs built to produce odd cycles.  Clusters are solved the way
production solves them, one padded ``_match_clusters`` batch per
power-of-two size class, and a batch must give every cluster the
matching, mask and path it gets when solved alone.  A larger fuzz run is
tier-2.
"""

import math
from collections import Counter

import numpy as np
import pytest
from oracles import cluster_split, min_matching_weight

from repro.decoder import mwpm
from repro.decoder.base import SortedMemo, defect_lists
from repro.decoder.engine import make_decoder
from repro.decoder.graph import BOUNDARY, INT64_OBSERVABLES, DecodingGraph
from repro.decoder.mwpm import MWPMDecoder, _match_batch, _padded
from repro.estimator.rare import rare_engine
from repro.noise.dem import extract_dem
from repro.noise.models import BiasedPauli
from repro.obs import REGISTRY
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit, transversal_cnot_experiment

PATHS = {"relaxation", "branched", "fallback"}


def _assert_exact(decoder, cluster, pairs):
    """``pairs`` cover ``cluster`` once each and weigh the oracle minimum."""
    assert sorted(u for pair in pairs for u in pair if u != BOUNDARY) == sorted(cluster)
    dist = decoder._dist
    weight = sum(dist[u, v] for u, v in pairs)
    members = list(cluster)
    pair_cost = dist[np.ix_(members, members)]
    expected = min_matching_weight(pair_cost, dist[members, BOUNDARY])
    assert weight == pytest.approx(expected, rel=1e-9)


def _flat(clusters):
    """``(ids, first, sizes)`` of a list of cluster tuples."""
    sizes = np.array([len(c) for c in clusters], dtype=np.int64)
    first = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    ids = np.array([u for c in clusters for u in c], dtype=np.int64)
    return ids, first, sizes


def _solve(decoder, clusters):
    """``_solve_clusters`` masks by cluster tuple."""
    return dict(zip(clusters, decoder._solve_clusters(*_flat(clusters)).tolist()))


def _match(decoder, clusters):
    """``(pairs, path)`` per cluster, each power-of-two size class matched
    as one padded batch, as ``_solve_clusters`` does.

    Pairs are ``(defect, partner)`` with ``BOUNDARY`` for a boundary
    match; the batch's partner rows must be involutions on the cluster
    and give padding the boundary.
    """
    out = [None] * len(clusters)
    ids, first, sizes = _flat(clusters)
    size_class = np.frexp(sizes - 1)[1]
    for c in np.unique(size_class):
        idx = np.flatnonzero(size_class == c)
        defs = _padded(ids, first[idx], sizes[idx], 0)
        partner, paths = decoder._match_clusters(defs, sizes[idx])
        for i, members, mates, path in zip(idx, defs.tolist(), partner.tolist(), paths):
            size = len(clusters[i])
            assert mates[size:] == [BOUNDARY] * (len(mates) - size)
            lookup = dict(zip(members[:size], mates[:size]))
            assert all(v == BOUNDARY or lookup[v] == u for u, v in lookup.items())
            pairs = [(u, v) for u, v in lookup.items() if v == BOUNDARY or v > u]
            out[i] = (pairs, path)
    return out


def _row_clusters(decoder, syndromes):
    """Each row's clusters as tuples, from one ``_split``."""
    ids, first, sizes, row = decoder._split(*defect_lists(syndromes)[:2])
    out = [[] for _ in range(syndromes.shape[0])]
    for start, size, r in zip(first.tolist(), sizes.tolist(), row.tolist()):
        out[r].append(tuple(ids[start:start + size].tolist()))
    return out


def _clusters(decoder, syndromes, min_defects=3):
    """Every distinct cluster of the rows with ``min_defects``+ defects."""
    rows = np.unique(syndromes, axis=0)
    rows = rows[rows.sum(axis=1) >= min_defects]
    return sorted({c for clusters in _row_clusters(decoder, rows) for c in clusters})


def _check_clusters(decoder, syndromes, min_size=3):
    """Solve every cluster of ``min_size``+ defects exactly; path counts."""
    clusters = [c for c in _clusters(decoder, syndromes) if len(c) >= min_size]
    paths = Counter()
    for cluster, (pairs, path) in zip(clusters, _match(decoder, clusters)):
        _assert_exact(decoder, cluster, pairs)
        paths[path] += 1
    return paths


def _rare_decoder(distance, p, shots, seed=1):
    """A fresh MWPM decoder that decoded ``shots`` importance-sampled shots."""
    circuit = memory_circuit(distance, distance, p)
    engine = rare_engine(circuit, "mwpm", min_failure_weight=(distance + 1) // 2)
    det_keys = engine.sampler.sample_weighted(shots, np.random.default_rng(seed))[0]
    syndromes = np.unpackbits(det_keys, axis=1, count=circuit.num_detectors)
    return MWPMDecoder(engine.decoder.graph), syndromes


def _solve_matrix(pair_cost, boundary_cost):
    """``(pairs, path)`` of one cost matrix, ``j = -1`` for the boundary."""
    mate, paths = _match_batch(pair_cost[None], boundary_cost[None], np.array([boundary_cost.size]))
    return [(i, j) for i, j in enumerate(mate[0].tolist()) if j < 0 or j > i], paths[0]


def _weight(pair_cost, boundary_cost, pairs):
    return sum(boundary_cost[i] if j < 0 else pair_cost[i, j] for i, j in pairs)


def _random_instance(rng, k):
    """Symmetric small-integer pair costs, ~30% missing, and boundary costs.

    Few distinct weights make ties and odd-cycle assignment optima common.
    """
    pair = np.triu(rng.integers(1, 5, size=(k, k)).astype(float), 1)
    pair[np.triu(rng.random((k, k)) < 0.3, 1)] = math.inf
    pair = pair + pair.T
    np.fill_diagonal(pair, 0.0)
    return pair, rng.integers(1, 7, size=k).astype(float)


def _random_graph_decoder(rng, n):
    """MWPM decoder on a random connected graph with 1-, 2- or 3-unit edges.

    A random spanning tree plus ``n`` extra edges (triangles and other odd
    cycles abound), and boundary edges on about a fifth of the nodes, so
    every node has a boundary path.
    """
    graph = DecodingGraph(num_detectors=n, num_observables=1)
    edges = {(int(rng.integers(i)), i) for i in range(1, n)}
    while len(edges) < 2 * n - 1:
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((a, b))
    ends = [(a, b) for a, b in sorted(edges)]
    ends += [(a,) for a in range(n) if a == 0 or rng.random() < 0.2]
    for detectors in ends:
        # Weight log((1 - p) / p) of exactly ``units``.
        units = int(rng.integers(1, 4))
        observables = frozenset({0}) if rng.random() < 0.5 else frozenset()
        graph.add_mechanism(detectors, 1.0 / (1.0 + math.exp(units)), observables)
    return MWPMDecoder(graph)


def _fuzz_graphs(seed, graphs, clusters_per_graph, max_k):
    """Solve random defect sets on random graphs; count the paths taken."""
    rng = np.random.default_rng(seed)
    paths = Counter()
    for _ in range(graphs):
        decoder = _random_graph_decoder(rng, 2 * max_k)
        clusters = []
        for _ in range(clusters_per_graph):
            k = int(rng.integers(3, max_k + 1))
            clusters.append(tuple(sorted(int(d) for d in rng.choice(2 * max_k, k, replace=False))))
        for cluster, (pairs, path) in zip(clusters, _match(decoder, clusters)):
            _assert_exact(decoder, cluster, pairs)
            paths[path] += 1
    return paths


def _assert_batch_matches_alone(decoder, clusters):
    """Size-class batches give each cluster its solo matching, mask and path."""
    batch = _match(decoder, clusters)
    assert batch == [_match(decoder, [cluster])[0] for cluster in clusters]
    masks = _solve(decoder, clusters)
    alone = [_solve(decoder, [cluster])[cluster] for cluster in clusters]
    assert [masks[cluster] for cluster in clusters] == alone
    return Counter(path for _, path in batch)


def _biased_uniform_traffic():
    """Uniform-weight MWPM on biased-noise d=5 syndromes: ties abound."""
    circuit = memory_circuit(5, 5, 4e-3, basis="X", noise=BiasedPauli(4e-3, bias=4.0))
    detectors, _ = FrameSimulator(circuit).sample(384, rng=np.random.default_rng(3))
    return make_decoder("mwpm_uniform", extract_dem(circuit)), detectors


class TestTrafficClusters:
    @pytest.mark.parametrize("distance,p", [(5, 1e-3), (7, 5e-4)])
    def test_importance_sampled_clusters_are_exact(self, distance, p):
        decoder, syndromes = _rare_decoder(distance, p, shots=192)
        paths = _check_clusters(decoder, syndromes)
        assert sum(paths.values()) >= 50
        assert set(paths) <= PATHS - {"fallback"}

    def test_uniform_weight_biased_clusters_are_exact(self):
        decoder, detectors = _biased_uniform_traffic()
        paths = _check_clusters(decoder, detectors)
        # Ties leave fractional odd cycles in many relaxations.
        assert paths["branched"] > 0 and sum(paths.values()) >= 100

    def test_zero_node_cap_sends_every_cluster_to_the_fallback(self, monkeypatch):
        monkeypatch.setattr(mwpm, "_BRANCH_NODE_LIMIT", 0)
        decoder, syndromes = _rare_decoder(5, 1e-3, shots=128, seed=2)
        paths = _check_clusters(decoder, syndromes, min_size=1)
        assert set(paths) == {"fallback"} and paths["fallback"] >= 50


class TestRandomGraphs:
    def test_triangle_needs_branching(self):
        # The relaxation's optimum is the 3-cycle (cost 3); no matching
        # pairs all three, so the optimum is one pair plus one boundary.
        pair = np.full((3, 3), 2.0)
        pairs, path = _solve_matrix(pair, np.full(3, 5.0))
        assert _weight(pair, np.full(3, 5.0), pairs) == 7.0
        assert path == "branched"

    def test_random_integer_matrices_are_exact(self):
        rng = np.random.default_rng(11)
        branched = 0
        for _ in range(250):
            pair, boundary = _random_instance(rng, int(rng.integers(3, 13)))
            pairs, path = _solve_matrix(pair, boundary)
            assert sorted(u for p in pairs for u in p if u >= 0) == list(range(boundary.size))
            assert _weight(pair, boundary, pairs) == pytest.approx(
                min_matching_weight(pair, boundary), rel=1e-9
            )
            branched += path == "branched"
        assert branched >= 25

    def test_random_integer_graphs_are_exact(self):
        paths = _fuzz_graphs(seed=12, graphs=8, clusters_per_graph=25, max_k=14)
        assert paths["branched"] >= 10

    @pytest.mark.slow
    def test_random_integer_graph_fuzz(self):
        paths = _fuzz_graphs(seed=13, graphs=200, clusters_per_graph=50, max_k=32)
        assert sum(paths.values()) == 10_000 and paths["branched"] >= 1000


class TestBatchMatchesAlone:
    @pytest.mark.parametrize("distance,p", [(5, 1e-3), (7, 5e-4)])
    def test_importance_sampled_traffic(self, distance, p):
        decoder, syndromes = _rare_decoder(distance, p, shots=192, seed=4)
        paths = _assert_batch_matches_alone(decoder, _clusters(decoder, syndromes))
        assert paths["relaxation"] >= 50 and paths["branched"] > 0

    def test_uniform_weight_biased_traffic(self):
        decoder, detectors = _biased_uniform_traffic()
        paths = _assert_batch_matches_alone(decoder, _clusters(decoder, detectors))
        assert paths["branched"] > 0 and sum(paths.values()) >= 100

    def test_random_graphs_with_odd_and_even_root_cycles(self, monkeypatch):
        # Record the cycle lengths of every root assignment that is not a
        # matching, to show both odd cycles and even ones of length >= 4
        # reach the branch-and-bound.
        roots = []
        branch = mwpm._branch_and_bound

        def recording(pair_cost, boundary_cost, base, root):
            roots.extend(len(cycle) for cycle in mwpm._cycles(root))
            return branch(pair_cost, boundary_cost, base, root)

        monkeypatch.setattr(mwpm, "_branch_and_bound", recording)
        rng = np.random.default_rng(21)
        paths = Counter()
        for _ in range(4):
            decoder = _random_graph_decoder(rng, 24)
            sizes = rng.integers(3, 13, size=40)
            clusters = sorted({tuple(sorted(rng.choice(24, k, replace=False).tolist())) for k in sizes})
            paths += _assert_batch_matches_alone(decoder, clusters)
        assert any(n % 2 and n > 1 for n in roots)
        assert any(n % 2 == 0 and n >= 4 for n in roots)
        assert paths["branched"] > 0

    def test_padded_size_class_batch(self):
        # Clusters of 5-8 defects share one padded batch of width 8.
        rng = np.random.default_rng(23)
        decoder = _random_graph_decoder(rng, 24)
        clusters = sorted({
            tuple(sorted(rng.choice(24, k, replace=False).tolist()))
            for k in rng.integers(5, 9, size=60)
        })
        ids, first, sizes = _flat(clusters)
        assert set(np.frexp(sizes - 1)[1].tolist()) == {3}
        assert sizes.min() == 5 and sizes.max() == 8
        paths = _assert_batch_matches_alone(decoder, clusters)
        assert paths["relaxation"] > 0 and paths["branched"] > 0

    def test_zero_node_cap(self, monkeypatch):
        monkeypatch.setattr(mwpm, "_BRANCH_NODE_LIMIT", 0)
        decoder, syndromes = _rare_decoder(5, 1e-3, shots=128, seed=2)
        paths = _assert_batch_matches_alone(decoder, _clusters(decoder, syndromes))
        assert set(paths) == {"fallback"}

    def test_clusters_without_boundary_paths(self):
        # Detectors 0-3 form a chain with no boundary edge; 4 and 5 are a
        # pair with boundary edges.  Each batch size mixes both kinds.
        graph = DecodingGraph(num_detectors=6, num_observables=2)
        for detectors, observables in [
            ((0, 1), {0}), ((1, 2), {1}), ((2, 3), {0}),
            ((4, 5), {1}), ((4,), {0}), ((5,), set()),
        ]:
            graph.add_mechanism(detectors, 0.01, frozenset(observables))
        decoder = MWPMDecoder(graph)
        clusters = [(0, 1), (4, 5), (0, 3), (4,), (5,), (1, 2), (0, 1, 2, 3), (2, 3)]
        paths = _assert_batch_matches_alone(decoder, clusters)
        assert paths == {"fallback": 5, "relaxation": 3}
        assert sorted(_match(decoder, clusters)[6][0]) == [(0, 1), (2, 3)]

    def test_sequential_control_graph_python_int_masks(self):
        builder = transversal_cnot_experiment(7, 4, 2e-3, [1, 2])
        simulator = FrameSimulator(builder.circuit, rng=np.random.default_rng(9))
        sequential = make_decoder(
            "sequential", extract_dem(builder.circuit), detector_meta=builder.detector_meta
        )
        control = sequential._control_decoder
        assert control.graph.num_observables > INT64_OBSERVABLES
        detectors, _ = simulator.sample(200)
        clusters = _clusters(control, detectors[:, sequential._control_ids])
        paths = _assert_batch_matches_alone(control, clusters)
        assert sum(paths.values()) >= 50
        masks = _solve(control, clusters)
        assert any(mask >= 1 << 63 for mask in masks.values())


class TestMemo:
    def test_clusters_over_four_defects_are_never_stored(self):
        decoder, syndromes = _rare_decoder(5, 1e-3, shots=192, seed=6)
        clusters = _clusters(decoder, syndromes, min_defects=1)
        big = [c for c in clusters if len(c) > mwpm._CACHE_MAX_DEFECTS]
        assert decoder._memo.max_defects == mwpm._CACHE_MAX_DEFECTS == 4
        # Rows of one large cluster each store nothing.
        n = decoder.graph.num_detectors
        rows = np.zeros((len(big), n), dtype=np.uint8)
        for i, cluster in enumerate(big):
            rows[i, list(cluster)] = 1
        assert len(big) >= 10
        decoder.decode_batch(rows)
        assert decoder._memo.keys.size == 0
        # Sampled rows store exactly their distinct small clusters.
        decoder.decode_batch(np.unique(syndromes, axis=0))
        assert decoder._memo.keys.size == len(clusters) - len(big)
        assert np.all(np.diff(decoder._memo.keys) > 0)
        assert 0 < decoder._memo.keys.max() < (n + 1) ** 4

    @pytest.mark.parametrize("detectors,defects", [(1000, 4), (60_000, 3)])
    def test_memo_keys_stay_exact_in_int64(self, detectors, defects):
        memo = SortedMemo(detectors, mwpm._CACHE_MAX_DEFECTS, np.int64)
        assert memo.max_defects == defects
        top = np.arange(detectors - defects, detectors)
        key = memo.keys_of(top, np.array([0]), np.array([defects]))[0]
        exact = 0
        for u in top.tolist():
            exact = exact * (detectors + 1) + u + 1
        assert key == exact < 2 ** 63
        if detectors <= 1000:
            graph = DecodingGraph(num_detectors=detectors, num_observables=1)
            graph.add_mechanism((0, 1), 0.01, frozenset({0}))
            graph.add_mechanism((0,), 0.01, frozenset())
            assert MWPMDecoder(graph)._memo.max_defects == defects


class TestClusterSplit:
    def _assert_split_matches_loop(self, decoder, syndromes):
        # Every batch also holds rows with no defect and with one defect.
        extra = np.zeros((3, syndromes.shape[1]), dtype=np.uint8)
        extra[1, 0] = extra[2, -1] = 1
        syndromes = np.concatenate([extra[:2], syndromes, extra[::-1]])
        expected = [cluster_split(decoder, np.flatnonzero(row).tolist()) for row in syndromes]
        assert _row_clusters(decoder, syndromes) == expected

    def test_importance_sampled_rows(self):
        decoder, syndromes = _rare_decoder(7, 5e-4, shots=256, seed=5)
        self._assert_split_matches_loop(decoder, syndromes)

    def test_random_graph_rows(self):
        rng = np.random.default_rng(22)
        decoder = _random_graph_decoder(rng, 40)
        self._assert_split_matches_loop(decoder, (rng.random((300, 40)) < 0.15).astype(np.uint8))


class TestPathTelemetry:
    def test_every_cluster_solve_is_counted_once(self):
        decoder, syndromes = _rare_decoder(5, 1e-3, shots=128, seed=3)
        clusters = _clusters(decoder, syndromes, min_defects=1)
        large = sum(len(c) > mwpm._CACHE_MAX_DEFECTS for c in clusters)
        REGISTRY.reset()

        def solves():
            decoder.decode_batch(syndromes)
            series = REGISTRY.snapshot()["repro_mwpm_clusters_total"]["series"]
            assert {label for (label,) in series} <= PATHS
            return sum(series.values())

        # Every cold cluster is solved once, single defects included.
        assert solves() == len(clusters)
        # Only the clusters too large to memoize are solved again.
        assert large > 0 and solves() == len(clusters) + large
