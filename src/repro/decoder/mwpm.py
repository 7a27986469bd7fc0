"""Minimum-weight perfect-matching decoder on a decoding graph.

Defects (flipped detectors) are matched pairwise or to the boundary along
shortest paths of the decoding graph; the predicted logical flip is the XOR
of observable masks along the matched paths.  Shortest paths are
precomputed once per graph (the experiment graphs are small) by
:func:`_path_tables`, one scipy Dijkstra pass over the graph's
:class:`~repro.decoder.graph.EdgeTable`, as dense ``(N, N)`` distance and
path-observable tables whose last index, ``BOUNDARY`` (-1), is the
boundary.  Among equal-weight paths the choice is Dijkstra's.

Cluster decomposition: the defect set is first split into
clusters under the relation ``d(u, v) < d(u, B) + d(v, B)`` (matching the
pair directly is strictly cheaper than routing both to the boundary).  A
minimum-weight matching never needs a pair that violates it -- replacing
such a pair with two boundary matchings costs no more -- so clusters can
be matched independently without changing the optimal weight.  The
shared group pipeline of :mod:`repro.decoder.base` splits every row of
a decode call (:func:`~repro.decoder.base.split_groups`) and looks up or
solves each distinct cluster once
(:meth:`~repro.decoder.base.SortedMemo.solve`, memoizing clusters of up
to :data:`_CACHE_MAX_DEFECTS` defects across calls).  A row's prediction
is the XOR of its clusters' masks (int64, or Python ints on wide
graphs).

Matching strategy: every cluster of ``k`` defects is solved exactly by
the assignment (bipartite double-cover) relaxation of matching.  The
``k x k`` cost matrix holds ``d(i, B)`` on the diagonal and
``d(i, j) / 2`` off it, and ``scipy.optimize.linear_sum_assignment``
minimizes it over permutations.  Every matching is a permutation of cost
equal to its weight (1-cycles are boundary matches, 2-cycles are pairs),
so the assignment optimum is a lower bound on the best matching.  A
call's unsolved clusters are matched in one :func:`_match_batch` per
power-of-two size class, whose gather builds their padded cost matrices
as one ``(m, k, k)`` array; every solve below runs on the cluster's
unpadded slice, so batching never changes a matching.  A root that is an
involution (only 1- and 2-cycles; most clusters) is the matching.  Only
the other roots enter :func:`_branch_and_bound`, which starts from the
root already solved.  There an even cycle splits into two matchings whose
mean cost is the cycle's cost, so the cheaper of the two is no worse.
Only an odd cycle (length >= 3) is fractional.  It is cut by branching on
one member ``v`` with cycle neighbours ``u`` and ``w``:
``v`` pairs with ``u`` (forced: rows ``v`` and ``u`` may only pick each
other), ``v`` pairs with ``w``, or ``v`` pairs with neither (both pairs
forbidden in both directions).  The three children partition the
parent's matchings and each excludes the fractional cycle.  The search is
best-first on the bound; each node's assignment is also rounded to a
matching (even cycles split, an odd cycle sends one member to the
boundary), and the cheapest such incumbent is optimal once no open bound
is below it -- at the latest when a node's assignment has no odd cycle.
Past :data:`_BRANCH_NODE_LIMIT` solves, or when a defect has no boundary
path, the cluster falls back to :meth:`MWPMDecoder._match_blossom`:
networkx's blossom via the defect-graph + boundary-copy construction,
which also reports syndromes the graph cannot explain (the one place
networkx is imported, on first use).  Every entry point
-- :meth:`~MWPMDecoder.decode`, ``decode_batch`` and ``decode_packed`` --
runs this one path; the whole-syndrome matchers it replaced live in the
test suite's oracles.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csgraph

from repro.decoder.base import BatchDecoder, SortedMemo, _padded, _unmask_rows, split_groups
from repro.decoder.graph import BOUNDARY, DecodingGraph, EdgeTable
from repro.obs import metrics as _metrics

# Cluster-memo entries kept before the memo is dropped wholesale; at
# sub-threshold noise the reachable cluster population is tiny, so this is
# purely a runaway guard for above-threshold inputs.
_CLUSTER_CACHE_LIMIT = 1 << 18

# Clusters of more defects are solved but not memoized: they almost never
# recur (2% of 5-defect lookups hit, ~0% beyond, at d=5 p=4e-3 biased noise
# and d=7 p=5e-4 importance sampling) yet would hold most of the memo.
_CACHE_MAX_DEFECTS = 4

# Assignment solves per cluster before the branch-and-bound gives up and
# the cluster takes the exact fallback matcher.
_BRANCH_NODE_LIMIT = 1000

# One increment per batch and path.  Counts depend on the per-process
# cluster memo (a memoized cluster is solved once per process), so unlike
# the decode results they are *not* worker-count invariant.
_MWPM_CLUSTERS = _metrics.counter(
    "repro_mwpm_clusters_total",
    "MWPM cluster solves by path (relaxation, branched, fallback).",
    ("path",),
)


def _match_batch(
    pair: np.ndarray, boundary: np.ndarray, sizes: np.ndarray
) -> Tuple[np.ndarray, List[str]]:
    """Exact minimum-weight matchings of ``m`` clusters, padded to ``k``.

    Args:
        pair: ``(m, k, k)`` pair weights (``inf`` = no pair; the diagonals
            are ignored).
        boundary: finite ``(m, k)`` boundary weights.
        sizes: members per cluster; cluster ``i`` is its first
            ``sizes[i]`` entries and is solved on that slice alone.

    Returns:
        ``(mate, paths)``: ``mate[i, j]`` is the index of the member that
        member ``j`` of cluster ``i`` is matched with, -1 for the boundary
        (and for padding); ``paths[i]`` is ``"relaxation"`` (the root
        assignment sufficed), ``"branched"``, or ``"fallback"`` once the
        search passes :data:`_BRANCH_NODE_LIMIT` (that row of ``mate`` is
        then meaningless).  See the module docstring for exactness.
    """
    m, k = boundary.shape
    if _BRANCH_NODE_LIMIT < 1:
        return np.full((m, k), -1), ["fallback"] * m
    # d(u, v) and d(v, u) can differ in the last ulp (separate Dijkstra
    # sources); the matcher needs symmetric matrices.
    pair = np.minimum(pair, pair.transpose(0, 2, 1))
    # Pairs no cheaper than both boundary routes are never needed.
    pair = np.where(pair < boundary[:, :, None] + boundary[:, None, :], pair, math.inf)
    base = pair / 2.0
    diag = np.arange(k)
    base[:, diag, diag] = boundary
    perms = np.tile(diag, (m, 1))
    for i, size in enumerate(sizes.tolist()):
        perms[i, :size] = linear_sum_assignment(base[i, :size, :size])[1]
    mate = np.where(perms == diag, -1, perms)
    paths = ["relaxation"] * m
    # A root assignment of 1- and 2-cycles only is itself a matching; the
    # rest start their branch-and-bound from it.
    involution = (np.take_along_axis(perms, perms, axis=1) == diag).all(axis=1)
    for i in np.flatnonzero(~involution).tolist():
        cut = slice(0, int(sizes[i]))
        pairs, nodes = _branch_and_bound(
            pair[i, cut, cut], boundary[i, cut], base[i, cut, cut], perms[i, cut]
        )
        paths[i] = "fallback" if pairs is None else "relaxation" if nodes == 1 else "branched"
        for a, b in pairs or ():
            mate[i, a] = b
            if b >= 0:
                mate[i, b] = a
    return mate, paths


def _branch_and_bound(
    pair_cost: np.ndarray, boundary_cost: np.ndarray, base: np.ndarray, root: np.ndarray
) -> Tuple[Optional[List[Tuple[int, int]]], int]:
    """Branch-and-bound from one cluster's root assignment ``root``.

    ``pair_cost`` is the pruned pair matrix and ``base`` the assignment
    matrix :func:`_match_batch` built, both unpadded; returns ``(pairs, nodes)``, ``nodes``
    counting the assignments solved (the root included), ``pairs = None``
    past :data:`_BRANCH_NODE_LIMIT`.
    """
    k = boundary_cost.size
    rows = np.arange(k)

    def solve(forbidden, forced):
        cost = base.copy()
        for a, b in forbidden:
            cost[a, b] = cost[b, a] = math.inf
        for a, b in forced:
            # Rows a and b may only pick each other.
            cost[[a, b], :] = math.inf
            cost[a, b] = cost[b, a] = base[a, b]
        perm = linear_sum_assignment(cost)[1]
        return float(cost[rows, perm].sum()), perm

    # Bounds and matching weights sum the same costs in different orders;
    # every matching weighs at most the all-boundary one.
    tol = 1e-12 * max(1.0, float(boundary_cost.sum()))
    nodes = 1
    heap: list = [(float(base[rows, root].sum()), nodes, (), (), root)]
    best_weight, best_pairs = math.inf, None
    # Best-first on the bound.  Every node stays feasible (its free rows
    # keep their diagonal) and children partition their parent's matchings,
    # so some open node holds an optimal matching until the incumbent meets
    # every open bound.
    children: list = []
    while True:
        for forbidden, forced in children:
            if nodes >= _BRANCH_NODE_LIMIT:
                return None, nodes
            nodes += 1
            bound, perm = solve(forbidden, forced)
            if bound < best_weight - tol:
                heapq.heappush(heap, (bound, nodes, forbidden, forced, perm))
        if not heap or heap[0][0] >= best_weight - tol:
            return best_pairs, nodes
        bound, _, forbidden, forced, perm = heapq.heappop(heap)
        cycles = _cycles(perm)
        weight, pairs = _round_cycles(cycles, pair_cost, boundary_cost)
        if weight < best_weight:
            best_weight, best_pairs = weight, pairs
        odd = [c for c in cycles if len(c) % 2 and len(c) > 1]
        if not odd or best_weight <= bound + tol:
            return best_pairs, nodes
        # Branch on a member v of the shortest odd cycle: v pairs with its
        # cycle successor, with its predecessor, or with neither.
        cycle = min(odd, key=len)
        v, after, before = cycle[0], cycle[1], cycle[-1]
        children = [
            (forbidden + ((v, after), (v, before)), forced),
            (forbidden, forced + ((v, after),)),
            (forbidden, forced + ((v, before),)),
        ]


def _cycles(perm: np.ndarray) -> List[List[int]]:
    """Cycles of a permutation, each from its smallest member."""
    done = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if done[start]:
            continue
        cycle = []
        i = start
        while not done[i]:
            done[i] = True
            cycle.append(i)
            i = int(perm[i])
        out.append(cycle)
    return out


def _round_cycles(
    cycles: List[List[int]], pair_cost: np.ndarray, boundary_cost: np.ndarray
) -> Tuple[float, List[Tuple[int, int]]]:
    """Cheapest matching along the permutation cycles, and its weight.

    An even cycle keeps the cheaper of its two alternating matchings; an
    odd one sends one member to the boundary and pairs the rest along the
    cycle.  Without odd cycles this is optimal (weight <= the bound).
    """
    weight = 0.0
    pairs: List[Tuple[int, int]] = []
    for cycle in cycles:
        size = len(cycle)
        if size <= 2:
            if size == 1:
                weight += boundary_cost[cycle[0]]
                pairs.append((cycle[0], -1))
            else:
                weight += pair_cost[cycle[0], cycle[1]]
                pairs.append((cycle[0], cycle[1]))
            continue
        best = None
        for start in range(size if size % 2 else 2):
            option = [
                (cycle[(start + t) % size], cycle[(start + t + 1) % size])
                for t in range(0, size - 1, 2)
            ]
            cost = sum(pair_cost[a, b] for a, b in option)
            if size % 2:
                option.append((cycle[start - 1], -1))
                cost += boundary_cost[cycle[start - 1]]
            if best is None or cost < best[0]:
                best = (cost, option)
        weight += best[0]
        pairs.extend(best[1])
    return float(weight), pairs


def _path_tables(table: EdgeTable) -> Tuple[np.ndarray, np.ndarray]:
    """All-pairs shortest-path distances and path observable masks.

    One scipy Dijkstra pass over the edge table.  ``obs[s, t]`` is the XOR
    of the edge masks along the predecessor chain from ``t`` back to
    ``s``, accumulated by pointer doubling over the predecessor matrix.
    Unreachable pairs hold ``inf`` distance and mask 0.
    """
    size, count = table.node_count, table.ea.size
    weights = sparse.csr_matrix((table.weight, (table.ea, table.eb)), shape=(size, size))
    dist, pred = csgraph.dijkstra(weights, directed=False, return_predecessors=True)
    # Edge id per node pair; id `count` is a zero mask (no edge).
    edge = np.full((size, size), count, dtype=np.int64)
    edge[table.ea, table.eb] = edge[table.eb, table.ea] = np.arange(count)
    nodes = np.arange(size)
    rows = nodes[:, None]
    # up[s, t] is t's predecessor on the path from s (roots point to
    # themselves); obs[s, t] starts as the mask of that last hop.
    up = np.where(pred >= 0, pred, nodes)
    obs = np.append(table.mask, 0)[np.where(pred >= 0, edge[up, nodes], count)]
    while True:
        # Each step doubles the hops above every node that obs covers.
        obs ^= obs[rows, up]
        higher = up[rows, up]
        if np.array_equal(higher, up):
            return dist, obs
        up = higher


class MWPMDecoder(BatchDecoder):
    """Decoder instance bound to one decoding graph.

    Args:
        graph: decoding graph to match on.
    """

    def __init__(self, graph: DecodingGraph) -> None:
        self.graph = graph
        # (N, N) tables over detectors + boundary (index -1, i.e. BOUNDARY).
        self._dist, self._obs = _path_tables(graph.edge_table())
        self._memo = SortedMemo(graph.num_detectors, _CACHE_MAX_DEFECTS, self._obs.dtype)

    # -- decoding -----------------------------------------------------------

    @property
    def num_observables(self) -> int:
        return self.graph.num_observables

    def _split(self, row_of: np.ndarray, node: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Every row's clusters, the components of ``d(u, v) < d(u, B) +
        d(v, B)``, as :func:`~repro.decoder.base.split_groups` lists them."""
        dist = self._dist

        def near(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            # Read d(u, v) for u < v only: shortest pair paths may route
            # *through* the boundary node, where d(u, v) equals
            # d(u, B) + d(v, B) up to float associativity and the strict
            # comparison can come out asymmetric.
            return dist[u, v] < dist[u, BOUNDARY] + dist[v, BOUNDARY]

        return split_groups(row_of, node, near, self.graph.num_detectors)

    # -- batched decoding ---------------------------------------------------

    def _decode_defects(
        self, row_of: np.ndarray, node: np.ndarray, rows: int
    ) -> np.ndarray:
        """Split, look up or solve every distinct cluster once, XOR each
        row's cluster masks.  A cluster's mask is a pure function of the
        graph and the cluster, so the output does not depend on how rows
        are batched."""
        ids, first, sizes, row = self._split(row_of, node)
        vals = self._memo.solve(ids, first, sizes, self._solve_clusters, _CLUSTER_CACHE_LIMIT)
        masks = np.zeros(rows, dtype=vals.dtype)
        np.bitwise_xor.at(masks, row, vals)
        return _unmask_rows(masks, self.graph.num_observables)

    def _solve_clusters(
        self, ids: np.ndarray, first: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Observable masks of the clusters ``ids[first[i]:first[i] +
        sizes[i]]``, matched in one padded batch per power-of-two size
        class."""
        masks = np.zeros(first.size, dtype=self._obs.dtype)
        counts: Counter = Counter()
        size_class = np.frexp(sizes - 1)[1]
        for c in np.unique(size_class).tolist():
            group = np.flatnonzero(size_class == c)
            defs = _padded(ids, first[group], sizes[group], 0)
            partner, paths = self._match_clusters(defs, sizes[group])
            counts.update(paths)
            # Every pair once, from its lower end, plus the boundary matches.
            real = np.arange(defs.shape[1]) < sizes[group, None]
            kept = real & ((partner < 0) | (partner > defs))
            masks[group] = np.bitwise_xor.reduce(
                np.where(kept, self._obs[defs, partner], 0), axis=1
            )
        for path, count in counts.items():
            _MWPM_CLUSTERS.labels(path=path).inc(count)
        return masks

    def _match_clusters(
        self, defs: np.ndarray, sizes: np.ndarray
    ) -> Tuple[np.ndarray, List[str]]:
        """Exact matchings of the clusters ``defs[i, :sizes[i]]`` (the rest
        of each row is padding: boundary weight 0, no pairs).

        Returns ``(partner, paths)``: ``partner[i, j]`` is the defect
        matched with ``defs[i, j]``, ``BOUNDARY`` for the boundary and for
        padding; ``paths[i]`` is ``"relaxation"``, ``"branched"`` or
        ``"fallback"`` (:meth:`_match_blossom`, also every cluster with a
        defect that has no boundary path).
        """
        dist = self._dist
        real = np.arange(defs.shape[1]) < sizes[:, None]
        boundary = np.where(real, dist[defs, BOUNDARY], 0.0)
        both = real[:, :, None] & real[:, None, :]
        pair = np.where(both, dist[defs[:, :, None], defs[:, None, :]], math.inf)
        finite = np.isfinite(boundary).all(axis=1)
        ok = defs[finite]
        mate, solved = _match_batch(pair[finite], boundary[finite], sizes[finite])
        partner = np.full(defs.shape, BOUNDARY)
        mated = np.take_along_axis(ok, mate % ok.shape[1], axis=1)
        partner[finite] = np.where(mate < 0, BOUNDARY, mated)
        solved = iter(solved)
        paths = [next(solved) if good else "fallback" for good in finite.tolist()]
        for i, path in enumerate(paths):
            if path == "fallback":
                members = defs[i, : sizes[i]].tolist()
                mates = dict(self._match_blossom(members))
                mates.update({v: u for u, v in mates.items() if v != BOUNDARY})
                partner[i, : sizes[i]] = [mates[u] for u in members]
        return partner, paths

    def _match_blossom(self, defects: List[int]) -> List[Tuple[int, int]]:
        """Blossom matching on the defect graph with boundary copies.

        Defect-defect edges no cheaper than routing both ends to the
        boundary are pruned up front: a minimum-weight matching never
        needs them (replace the pair with its two boundary matchings), and
        they dominate the blossom run time on large defect sets.
        """
        import networkx as nx

        boundary_dist = self._dist[defects, BOUNDARY].tolist()
        pair_dist = self._dist[np.ix_(defects, defects)].tolist()
        match_graph = nx.Graph()
        for i in range(len(defects)):
            match_graph.add_node(("d", i))
            match_graph.add_node(("b", i))
            if not math.isinf(boundary_dist[i]):
                match_graph.add_edge(("d", i), ("b", i), weight=boundary_dist[i])
            for j in range(i + 1, len(defects)):
                dist = pair_dist[i][j]
                if dist < boundary_dist[i] + boundary_dist[j]:
                    match_graph.add_edge(("d", i), ("d", j), weight=dist)
        for i in range(len(defects)):
            for j in range(i + 1, len(defects)):
                match_graph.add_edge(("b", i), ("b", j), weight=0.0)
        matching = nx.algorithms.matching.min_weight_matching(match_graph)
        # Blossom returns a maximum-cardinality matching, which is only
        # perfect when one exists.  With an odd defect count and defects
        # that cannot reach the boundary, some defect stays unmatched and
        # would previously be dropped silently, corrupting the prediction.
        matched = {node for pair in matching for node in pair}
        unmatched = [defects[i] for i in range(len(defects)) if ("d", i) not in matched]
        if unmatched:
            raise ValueError(
                f"MWPM matching is not perfect: defects {unmatched} have no "
                f"boundary path and no available partner (defect count "
                f"{len(defects)}); the decoding graph cannot explain this "
                "syndrome"
            )
        pairs = []
        for a, b in matching:
            if a[0] == "b" and b[0] == "b":
                continue
            if a[0] == "d" and b[0] == "d":
                pairs.append((defects[a[1]], defects[b[1]]))
            else:
                defect_node = a if a[0] == "d" else b
                pairs.append((defects[defect_node[1]], BOUNDARY))
        return pairs
