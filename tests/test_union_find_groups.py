"""Tests for the union-find group path.

Union-find decodes each row's defect groups (components of
"within two hops", boundary removed) once, memoized, and falls back to
the whole-row arena for any row with a group that is not local.  These
tests check that the group path equals the whole-row arena on every
row, and both equal the sequential oracle (``oracles.ReferenceUnionFind``)
on every row the oracle calls order-insensitive; that memo state never
changes an output and the memo holds only groups of at most four
defects; that the certified round shift equals a node-by-node reference
and never changes a group's outcome; that groups are exactly the hop
components; that the path counters are worker-count invariant; and
(``slow``) that the arena fails no more often than the sequential oracle
on identical shots.
"""

from collections import deque

import numpy as np
import pytest
from oracles import ReferenceUnionFind

from repro.decoder import base, union_find
from repro.decoder.base import _unmask_rows, defect_lists
from repro.decoder.engine import DecodingEngine
from repro.decoder.graph import DecodingGraph
from repro.decoder.union_find import UnionFindDecoder
from repro.obs import REGISTRY
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit, transversal_cnot_experiment
from repro.sim.periodic import detect_period


def _setup(distance, rounds, p, shots, seed):
    """(decoder, unique sampled rows) for one memory experiment."""
    circuit = memory_circuit(distance, rounds, p)
    sim = FrameSimulator(circuit, rng=np.random.default_rng(seed))
    graph = DecodingGraph.from_dem(sim.detector_error_model())
    detectors, _ = sim.sample(shots)
    rows = np.unique(detectors.astype(np.uint8), axis=0)
    return UnionFindDecoder(graph), rows


@pytest.fixture(scope="module")
def d3():
    return _setup(3, 3, 0.01, 400, 5)


@pytest.fixture(scope="module")
def d5():
    return _setup(5, 5, 0.004, 400, 7)


def _assert_oracle_agrees(decoder, rows, out):
    """``out`` equals the sequential oracle on every row whose answer
    does not depend on processing order."""
    oracle = ReferenceUnionFind(decoder.graph)
    for row, got in zip(rows, out):
        expected, sensitive = oracle.trace(row)
        assert sensitive or np.array_equal(got, expected)


def _whole_row(decoder, rows):
    """The whole-row arena on every row."""
    return _unmask_rows(decoder._arena_rows(*defect_lists(rows))[0], decoder.num_observables)


def _local(decoder, rows):
    """Which rows the group path serves (all of their groups local)."""
    return decoder._decode_groups(*defect_lists(rows))[1]


def _rows(num_detectors, defect_sets):
    rows = np.zeros((len(defect_sets), num_detectors), dtype=np.uint8)
    for i, defects in enumerate(defect_sets):
        rows[i, list(defects)] = 1
    return rows


def _hop_distances(graph):
    """All-pairs hop distances over detectors, boundary edges ignored."""
    n = graph.num_detectors
    table = graph.edge_table()
    nbrs = [[] for _ in range(n)]
    for u, v in zip(table.ea.tolist(), table.eb.tolist()):
        if v < n:
            nbrs[u].append(v)
            nbrs[v].append(u)
    dist = np.full((n, n), np.inf)
    for source in range(n):
        dist[source, source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if dist[source, v] == np.inf:
                    dist[source, v] = dist[source, u] + 1
                    queue.append(v)
    return dist


def _groups(decoder, rows):
    """Each row's groups from one ``_split``, as sorted lists of ids."""
    ids, first, sizes, row = decoder._split(*defect_lists(rows)[:2])
    out = [[] for _ in range(rows.shape[0])]
    for start, size, r in zip(first.tolist(), sizes.tolist(), row.tolist()):
        out[r].append(ids[start:start + size].tolist())
    return [sorted(groups) for groups in out]


class TestGroupPathEqualsReference:
    @pytest.mark.parametrize("distance,p", [(5, 0.004), (7, 0.002)])
    def test_sampled_rows(self, distance, p):
        decoder, rows = _setup(distance, distance, p, 300, 11)
        local = _local(decoder, rows)
        # The group path must carry most rows, or this tests nothing.
        assert local.mean() > 0.9
        out = decoder.decode_batch(rows)
        assert np.array_equal(out, _whole_row(decoder, rows))
        _assert_oracle_agrees(decoder, rows, out)

    @pytest.mark.slow
    def test_d11_low_p_rows(self):
        decoder, rows = _setup(11, 12, 5e-4, 4096, 13)
        assert _local(decoder, rows).mean() > 0.99
        out = decoder.decode_batch(rows)
        assert np.array_equal(out, _whole_row(decoder, rows))
        _assert_oracle_agrees(decoder, rows, out)


class TestForcedFallbacks:
    def test_non_local_group(self, d5):
        decoder, _ = d5
        n = decoder.graph.num_detectors
        singles = _rows(n, [(u,) for u in range(n)])
        local = _local(decoder, singles)
        # A lone defect away from the boundary grows past one hop.
        assert not local.all()
        rows = singles[~local]
        out = decoder.decode_batch(rows)
        assert np.array_equal(out, _whole_row(decoder, rows))
        _assert_oracle_agrees(decoder, rows, out)

    def test_flagged_group(self, d3):
        # Pairs whose sequential answer depends on processing order were
        # once flagged and decoded whole; they are now local groups.
        decoder, _ = d3
        n = decoder.graph.num_detectors
        near = np.unpackbits(decoder._hop_bits()[0], axis=1, count=n).astype(bool)
        pairs = _rows(n, list(zip(*np.nonzero(np.triu(near, 1)))))
        rows = pairs[ReferenceUnionFind(decoder.graph).order_sensitive(pairs)]
        assert rows.shape[0] > 0
        assert _local(decoder, rows).all()
        assert np.array_equal(decoder.decode_batch(rows), _whole_row(decoder, rows))

    def test_groups_sharing_the_boundary(self):
        # Two local groups whose clusters reach the boundary.  Had the
        # boundary not stayed its cluster's root, the row's spanning
        # forest would depend on the other group, and the group path would
        # differ from the whole-row arena on exactly these rows.
        decoder = _setup(5, 5, 0.008, 1, 0)[0]
        rows = _rows(decoder.graph.num_detectors, [
            (21, 25, 49, 77, 84, 89, 92, 95, 97, 104, 106, 109),
            (10, 18, 20, 23, 33, 80, 87, 92, 103, 111, 112, 116, 119),
        ])
        assert _local(decoder, rows).all()
        assert np.array_equal(decoder.decode_batch(rows), _whole_row(decoder, rows))

    @pytest.mark.parametrize("setup", ["d3", "d5"])
    def test_groups_three_hops_apart(self, setup, request):
        decoder, _ = request.getfixturevalue(setup)
        dist = _hop_distances(decoder.graph)
        rows = _rows(decoder.graph.num_detectors, list(zip(*np.nonzero(np.triu(dist == 3)))))
        local = _local(decoder, rows)
        assert local.any()
        out = decoder.decode_batch(rows)
        assert np.array_equal(out, _whole_row(decoder, rows))
        served = rows[local][:60]
        _assert_oracle_agrees(decoder, served, out[local][:60])


class TestMemo:
    def test_cold_warm_and_dropped_memo_agree(self, d5, monkeypatch):
        _, rows = d5
        graph = d5[0].graph
        cold = UnionFindDecoder(graph)
        first = cold.decode_batch(rows)
        assert cold._memo.keys.size > 0
        assert np.all(np.diff(cold._memo.keys) > 0)
        assert cold._memo.vals.size == cold._memo.keys.size
        warm = cold.decode_batch(rows[::-1])[::-1]
        monkeypatch.setattr(union_find, "_GROUP_MEMO_LIMIT", 8)
        tiny = UnionFindDecoder(graph)
        # Small batches, so the memo is dropped between them.
        dropped = np.concatenate(
            [tiny.decode_batch(rows[i:i + 4]) for i in range(0, len(rows), 4)]
        )
        assert tiny._memo.keys.size < cold._memo.keys.size
        assert np.array_equal(first, warm)
        assert np.array_equal(first, dropped)
        _assert_oracle_agrees(cold, rows, first)

    def test_groups_over_four_defects_are_never_stored(self, d5):
        graph = d5[0].graph
        n = graph.num_detectors
        decoder = UnionFindDecoder(graph)
        assert decoder._memo.max_defects == union_find._MEMO_MAX_DEFECTS == 4
        near = np.unpackbits(decoder._hop_bits()[0], axis=1, count=n).astype(bool)
        # Rows of one group each: a node and four or five of its
        # within-two-hop neighbours.
        big = [
            (u, *np.flatnonzero(near[u] & (np.arange(n) > u))[:extra])
            for u in range(0, n, 7) for extra in (4, 5)
            if np.count_nonzero(near[u] & (np.arange(n) > u)) >= extra
        ]
        rows = _rows(n, big)
        assert all(len(groups) == 1 for groups in _groups(decoder, rows))
        out = decoder.decode_batch(rows)
        assert decoder._memo.keys.size == 0
        assert np.array_equal(out, _whole_row(decoder, rows))
        # Sampled rows with groups of every size store only the small ones.
        noisy = _setup(5, 5, 0.01, 300, 3)[1]
        assert decoder._split(*defect_lists(noisy)[:2])[2].max() > 4
        decoder.decode_batch(noisy)
        assert 0 < decoder._memo.keys.max() < (n + 1) ** 4

    @pytest.mark.parametrize("detectors,defects", [(1000, 4), (60_000, 3)])
    def test_memo_keys_stay_exact_in_int64(self, detectors, defects):
        graph = DecodingGraph(num_detectors=detectors, num_observables=1)
        graph.add_mechanism((0, 1), 0.01, frozenset({0}))
        graph.add_mechanism((0,), 0.01, frozenset())
        decoder = UnionFindDecoder(graph)
        assert decoder._memo.max_defects == defects
        assert (detectors + 1) ** defects < 2 ** 63


def _copy_graph(graph, order=None, edit=None):
    """A copy of ``graph`` (with its ``detector_shift``) with its edges
    inserted in ``order`` (default: unchanged) and ``edit(index, edge) ->
    (probability, observables)`` applied to each."""
    edges = graph.edges
    copy = DecodingGraph(graph.num_detectors, graph.num_observables)
    copy.detector_shift = graph.detector_shift
    for i in (range(len(edges)) if order is None else order):
        e = edges[i]
        prob, obs = (e.probability, e.observables) if edit is None else edit(i, e)
        copy.add_mechanism(e.detectors, prob, obs)
    return copy


def _reference_down(decoder, shift):
    """Per-detector run of certified shifts by ``shift``, from the
    definition node by node; None when the edge-id map is not increasing
    over the edges at shiftable nodes."""
    table = decoder._edges
    n = table.node_count - 1
    ea, eb = table.ea.tolist(), table.eb.tolist()
    ids = {(a, b): e for e, (a, b) in enumerate(zip(ea, eb))}
    incident = [[] for _ in range(n + 1)]
    for e, (a, b) in enumerate(zip(ea, eb)):
        incident[a].append(e)
        incident[b].append(e)

    def image(e):
        if ea[e] < shift:
            return None
        return ids.get((ea[e] - shift, eb[e] - shift if eb[e] < n else n))

    def same(e, f):
        return (
            f is not None
            and decoder._thresh[e] == decoder._thresh[f]
            and table.mask[e] == table.mask[f]
        )

    shiftable = [
        u >= shift
        and len(incident[u]) == len(incident[u - shift])
        and all(same(e, image(e)) for e in incident[u])
        for u in range(n)
    ]
    domain = sorted({e for u in range(n) if shiftable[u] for e in incident[u]})
    images = [image(e) for e in domain]
    if any(a >= b for a, b in zip(images, images[1:])):
        return None
    down = [0] * n
    for u in range(n):
        down[u] = down[u - shift] + 1 if shiftable[u] else 0
    return down


def _assert_certified(decoder):
    """The decoder's shift is the reference certification of the graph's
    ``detector_shift``, or 0 with nothing shiftable."""
    shift = decoder.graph.detector_shift
    down = _reference_down(decoder, shift) if shift else None
    if down is None or not any(down):
        assert decoder._period == 0
        assert not decoder._down.any()
    else:
        assert decoder._period == shift
        assert decoder._down.tolist() == down


def _probe_rows(decoder, extra=()):
    """Every single-defect row, every within-two-hop pair whose nodes are
    both shiftable (or both their shifted copies), and ``extra`` rows."""
    n, period = decoder.graph.num_detectors, decoder._period
    near = np.unpackbits(decoder._hop_bits()[0], axis=1, count=n).astype(bool)
    bulk = decoder._down > 0
    above = np.zeros(n, dtype=bool)
    above[:n - period] = bulk[period:]
    u, v = np.nonzero(np.triu(near, 1))
    keep = (bulk[u] & bulk[v]) | (above[u] & above[v])
    pairs = list(zip(u[keep], v[keep]))
    rows = _rows(n, [(u,) for u in range(n)] + pairs)
    return np.unique(np.concatenate([rows, *extra]), axis=0) if extra else rows


def _assert_group_path_exact(decoder, rows):
    """The group path (with shifts and memo) equals the whole-row arena."""
    assert np.array_equal(decoder.decode_batch(rows), _whole_row(decoder, rows))


class TestShift:
    @pytest.mark.parametrize(
        "distance,rounds,p,period", [(5, 5, 0.004, 24), (7, 7, 0.002, 48)]
    )
    def test_memory_graphs_certify_one_round(self, distance, rounds, p, period):
        decoder, _ = _setup(distance, rounds, p, 1, 0)
        assert decoder._period == period
        assert decoder._down.max() >= 2
        _assert_certified(decoder)

    @staticmethod
    def _shifted_copies_agree(decoder, rows, masked=True):
        """Every group of ``rows`` whose defects all shift has the same
        local-arena outcome as each of its shifted copies (with
        ``masked``, some of them local with a non-trivial mask)."""
        period, down = decoder._period, decoder._down
        ids, first, sizes, _ = decoder._split(*defect_lists(rows)[:2])
        bases, copies = [], []
        for start, size in zip(first.tolist(), sizes.tolist()):
            group = ids[start:start + size]
            for k in range(1, int(down[group].min()) + 1):
                bases.append(group)
                copies.append(group - k * period)
        assert bases, "no shiftable group"
        n = rows.shape[1]
        got = decoder._arena_rows(*defect_lists(_rows(n, bases)), local=True)
        want = decoder._arena_rows(*defect_lists(_rows(n, copies)), local=True)
        assert np.array_equal(got[0][~got[1]], want[0][~want[1]])
        assert np.array_equal(got[1], want[1])
        # Local groups with a non-trivial mask are among them.
        assert not masked or np.any(~got[1] & (got[0] != 0))

    def test_bulk_group_and_shifted_copy_agree(self, d5):
        decoder, rows = d5
        self._shifted_copies_agree(decoder, _probe_rows(decoder, [rows]))

    @pytest.mark.slow
    def test_bulk_group_and_shifted_copy_agree_d11(self):
        decoder, rows = _setup(11, 12, 5e-4, 4096, 17)
        assert decoder._period == 120
        _assert_certified(decoder)
        self._shifted_copies_agree(decoder, rows)
        _assert_group_path_exact(decoder, rows)

    @pytest.mark.parametrize("build", [
        lambda: memory_circuit(3, 4, 2e-3),
        lambda: memory_circuit(3, 4, 2e-3, basis="X"),
        lambda: transversal_cnot_experiment(3, 4, 2e-3, [2], basis="Z").circuit,
        lambda: transversal_cnot_experiment(3, 4, 2e-3, [2], basis="X").circuit,
    ], ids=["few_reps-Z", "few_reps-X", "cnot-Z", "cnot-X"])
    def test_other_graphs_certify_by_definition(self, build):
        circuit = build()
        sim = FrameSimulator(circuit, rng=np.random.default_rng(3))
        decoder = UnionFindDecoder(DecodingGraph.from_dem(sim.detector_error_model()))
        _assert_certified(decoder)
        detectors, _ = sim.sample(400)
        rows = np.unique(detectors.astype(np.uint8), axis=0)
        _assert_group_path_exact(decoder, _probe_rows(decoder, [rows]))

    @staticmethod
    def _bulk_edge(decoder):
        """Index of a detector-detector edge between two nodes that both
        shift twice, and its endpoints."""
        table = decoder._edges
        down = np.append(decoder._down, 0)
        e = int(np.flatnonzero((down[table.ea] >= 2) & (down[table.eb] >= 2))[0])
        return e, int(table.ea[e]), int(table.eb[e])

    @pytest.mark.parametrize("change", ["mask", "threshold"])
    def test_an_edited_bulk_edge_is_not_shifted(self, d5, change):
        decoder, rows = d5
        e, a, b = self._bulk_edge(decoder)
        period = decoder._period

        def edit(i, edge):
            if i != e:
                return edge.probability, edge.observables
            if change == "mask":
                return edge.probability, edge.observables ^ {0}
            return 0.4999999, edge.observables

        edited = UnionFindDecoder(_copy_graph(decoder.graph, edit=edit))
        assert edited._edges.ea[e] == a and edited._edges.eb[e] == b
        if change == "threshold":
            assert edited._thresh[e] != decoder._thresh[e]
        _assert_certified(edited)
        # The edited edge's ends, and the nodes whose edges map onto it,
        # lose their shift; the certified shift elsewhere stays.
        assert edited._period == period
        assert edited._down[[a, b, a + period, b + period]].tolist() == [0, 0, 0, 0]
        assert edited._down.max() >= 2
        probes = _rows(decoder.graph.num_detectors, [(a, b), (a - period, b - period)])
        if change == "mask":
            # The pair grows only the edited edge, so it decodes unlike
            # its shifted copy: a shift across the edit would be wrong.
            masks, far = edited._arena_rows(*defect_lists(probes), local=True)
            assert not far.any() and masks[0] != masks[1]
        _assert_group_path_exact(edited, _probe_rows(edited, [rows, probes]))

    def test_permuted_bulk_edge_order_refuses_the_shift(self, d5):
        decoder, rows = d5
        e, a, _ = self._bulk_edge(decoder)
        incident = decoder._edges.inc_edge[
            decoder._edges.indptr[a]:decoder._edges.indptr[a + 1]
        ]
        f = int(incident[incident != e][-1])
        order = list(range(decoder._edges.ea.size))
        order[e], order[f] = order[f], order[e]
        permuted = UnionFindDecoder(_copy_graph(decoder.graph, order=order))
        assert permuted._period == 0
        assert not permuted._down.any()
        _assert_certified(permuted)
        _assert_group_path_exact(permuted, _probe_rows(permuted, [rows]))


class TestCarriedShift:
    """The decoder certifies the round ``detect_period`` found, which the
    fault table, the model and the graph carry to it."""

    @staticmethod
    def _decoder(circuit, shots=400, seed=11):
        sim = FrameSimulator(circuit, rng=np.random.default_rng(seed))
        decoder = UnionFindDecoder(DecodingGraph.from_dem(sim.detector_error_model()))
        detectors, _ = sim.sample(shots)
        return decoder, np.unique(detectors.astype(np.uint8), axis=0)

    @pytest.mark.parametrize("distance,rounds,basis", [
        pytest.param(d, r, basis, marks=pytest.mark.slow if d == 11 else ())
        for d in (5, 7, 11) for r in (4, 5) for basis in "ZX"
    ])
    def test_memory_rounds_certify(self, distance, rounds, basis):
        circuit = memory_circuit(distance, rounds, 2e-3, basis=basis)
        decoder, rows = self._decoder(circuit)
        shift = detect_period(circuit).det_per_rep
        assert decoder.graph.detector_shift == shift
        assert decoder._period == shift
        assert decoder._down.max() >= 1
        _assert_certified(decoder)
        probes = _probe_rows(decoder, [rows])
        # At r=4 in the Z basis every shiftable group decodes to mask 0.
        TestShift._shifted_copies_agree(decoder, probes, masked=False)
        _assert_group_path_exact(decoder, probes)

    @pytest.mark.parametrize("build", [
        lambda: memory_circuit(5, 1, 2e-3),
        lambda: memory_circuit(5, 2, 2e-3, basis="X"),
        lambda: transversal_cnot_experiment(3, 4, 2e-3, [2], basis="Z").circuit,
        lambda: transversal_cnot_experiment(3, 4, 2e-3, [2], basis="X").circuit,
    ], ids=["r1-Z", "r2-X", "cnot-Z", "cnot-X"])
    def test_no_round_no_shift(self, build):
        circuit = build()
        assert detect_period(circuit) is None
        decoder, rows = self._decoder(circuit)
        assert decoder.graph.detector_shift == 0
        assert decoder._period == 0
        assert not decoder._down.any()
        _assert_group_path_exact(decoder, _probe_rows(decoder, [rows]))


class TestGroups:
    def test_groups_are_two_hop_components(self, d5):
        decoder, _ = d5
        n = decoder.graph.num_detectors
        dist = _hop_distances(decoder.graph)
        rng = np.random.default_rng(17)
        for _ in range(40):
            count = int(rng.integers(2, 9))
            nodes = np.sort(rng.choice(n, size=count, replace=False))
            # Reference components of "within two hops" by flood fill.
            expected = []
            left = set(int(u) for u in nodes)
            while left:
                stack = [left.pop()]
                group = set(stack)
                while stack:
                    u = stack.pop()
                    for v in list(left):
                        if dist[u, v] <= 2:
                            left.discard(v)
                            group.add(v)
                            stack.append(v)
                expected.append(sorted(group))
            assert _groups(decoder, _rows(n, [nodes]))[0] == sorted(expected)

    def test_boundary_paths_do_not_join_groups(self, d5):
        decoder, _ = d5
        graph = decoder.graph
        dist = _hop_distances(graph)
        on_boundary = sorted(
            {edge.detectors[0] for edge in graph.edges if len(edge.detectors) == 1}
        )
        # Two boundary detectors are two hops apart through the boundary
        # node, but more than two hops apart inside the graph.
        u, v = next(
            (a, b) for a in on_boundary for b in on_boundary if dist[a, b] > 2
        )
        u, v = sorted((u, v))
        assert _groups(decoder, _rows(graph.num_detectors, [(u, v)]))[0] == [[u], [v]]

    def test_chunking_does_not_change_groups(self, d5, monkeypatch):
        decoder, rows = d5
        rows = rows[:40]
        masks, local = decoder._decode_groups(*defect_lists(rows))
        # Eight defect pairs per grouping chunk, one row per arena chunk.
        monkeypatch.setattr(base, "_SPLIT_PAIRS", 8)
        monkeypatch.setattr(union_find, "_ARENA_CHUNK_ELEMS", 32)
        small = UnionFindDecoder(decoder.graph)
        small_masks, small_local = small._decode_groups(*defect_lists(rows))
        assert np.array_equal(masks, small_masks)
        assert np.array_equal(local, small_local)

    def test_groups_never_span_rows(self, d5):
        decoder, _ = d5
        groups = _groups(decoder, _rows(decoder.graph.num_detectors, [(4,), (4, 5)]))
        assert groups == [[[4]], [[4, 5]]]


class TestTelemetry:
    def _run(self, workers):
        REGISTRY.reset()
        circuit = memory_circuit(5, 5, 3e-3)
        with DecodingEngine(
            circuit, "union_find", shard_shots=256, workers=workers
        ) as engine:
            result = engine.run(2048, seed=7)
        snap = REGISTRY.snapshot()
        return (
            (result.shots, result.failures),
            snap["repro_uf_rows_total"]["series"],
            snap["repro_decode_shots_total"]["series"],
        )

    def test_path_counts_are_worker_count_invariant(self):
        result_1, paths_1, shots_1 = self._run(workers=1)
        result_2, paths_2, shots_2 = self._run(workers=2)
        assert result_1 == result_2
        assert paths_1 == paths_2
        # Every row is counted once, under the path that served it.
        assert sum(paths_1.values()) == shots_1[("UnionFindDecoder",)]
        assert paths_1[("groups",)] > paths_1[("row",)]

    def test_rows_counted_on_graphs_wider_than_int64(self):
        # Past 62 observables union-find rejects the graph at construction,
        # before any row is decoded or counted.
        graph = DecodingGraph(num_detectors=2, num_observables=70)
        graph.add_mechanism((0, 1), 0.01, frozenset({65}))
        graph.add_mechanism((0,), 0.01, frozenset({1}))
        REGISTRY.reset()
        with pytest.raises(ValueError, match="at most 62 observables"):
            UnionFindDecoder(graph)
        snap = REGISTRY.snapshot()
        assert sum(snap["repro_uf_rows_total"]["series"].values()) == 0
        assert sum(snap["repro_decode_shots_total"]["series"].values()) == 0


@pytest.mark.slow
def test_paired_failures_against_sequential_oracle():
    """On identical shots, the arena fails no more often than the
    sequential oracle, up to two standard deviations of the discordant
    count (one-sided: the arena may be better)."""
    circuit = memory_circuit(5, 5, 3e-3)
    sim = FrameSimulator(circuit, rng=np.random.default_rng(2024))
    graph = DecodingGraph.from_dem(sim.detector_error_model())
    detectors, observables = sim.sample(50_000)
    arena = (UnionFindDecoder(graph).decode_batch(detectors) != observables).any(axis=1)
    reference = (ReferenceUnionFind(graph).decode_batch(detectors) != observables).any(axis=1)
    arena_only = int((arena & ~reference).sum())
    reference_only = int((reference & ~arena).sum())
    # Discordant shots exist, so the two decoders really differ here.
    assert arena_only + reference_only > 0
    assert arena_only - reference_only <= 2 * np.sqrt(arena_only + reference_only)
