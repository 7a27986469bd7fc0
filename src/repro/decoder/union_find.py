"""Union-find decoder (paper Refs. [17, 90]).

A faster-but-less-accurate alternative to MWPM: defects grow clusters on
the decoding graph until every cluster is valid (even defect count or
touching the boundary); each cluster is then corrected by peeling a
spanning tree.  The paper's Fig. 13(a) motivates carrying such decoders:
they trade accuracy (a larger decoding factor alpha) for speed, and the
architecture tolerates the difference at ~50% volume cost.

Growth is round-synchronous, as Delfosse & Nickerson define it
("Almost-linear time decoding algorithm for topological codes",
arXiv:1709.06218): in each round every invalid cluster adds half an
edge weight of support to each un-grown edge at its nodes, all at once,
and only then do the grown edges merge clusters.  Half-edge growth
discretizes exactly to touch counting -- every increment of an edge's
support is half that same edge's weight, so an edge is grown at two
touches (one for zero-weight rails).  The round's grown edges join
clusters by a fixed link rule over canonical edge order, and a cluster
that holds the boundary keeps it as its root.  That fixes each row's spanning forest, so every
row has one answer, whatever else is in its batch.

Two layers compute it:

* The **group path** splits each row's defects into *groups*, the
  connected components of "within two hops" on the decoding graph with
  the boundary node removed.  It is **local** when
  every touch came from one of its own defects, so nothing beyond one
  hop was touched (boundary excluded); the arena stops a group as soon
  as it is not.  A row whose groups are all local is the XOR of their
  masks.  That is exact: groups are at least three hops apart, so their
  one-hop regions share no node, and joint round-synchronous growth is
  the union of the separate runs.  The boundary is the only shared node,
  and as the root of its cluster it never changes which edges join a
  group's forest.

  A group's outcome depends only on its defects' incident edges, so the
  decoder certifies a detector shift ``P`` on its graph at construction.
  The candidate is the graph's ``detector_shift``: the detector count of
  the circuit's repeated round, found once per circuit by
  :func:`~repro.sim.periodic.detect_period` and carried by the fault
  table, the model and the graph.  A node ``u`` is *shiftable* when its
  incident edges map one-to-one onto those of ``u - P`` (neighbour ``v``
  to ``v - P``, the boundary to itself) with equal growth thresholds and
  observable masks, and the edge-id map is strictly increasing over
  every edge at a shiftable node, which keeps the arena's canonical edge
  order and node ranking.  Every group runs shifted down by as many
  whole shifts as all its defects allow, so a group decodes the same in
  every round it recurs in.  A graph without a repeated round, or whose
  round does not certify, gets ``P = 0``.  Groups of at most
  :data:`_MEMO_MAX_DEFECTS` defects are memoized in a
  :class:`~repro.decoder.base.SortedMemo` (two sorted int64 arrays),
  keyed by a polynomial over their shifted ids; larger groups rarely
  recur and are only deduplicated per call.  The split and the memo are
  the shared group pipeline of :mod:`repro.decoder.base`; every
  distinct miss runs in the arena as a pseudo-row of its own defects.
* The **batched arena** decodes every other row whole, starting from
  the rows' defect lists.  Support is a
  flat ``(row, edge)`` touch counter updated with sorted-key scatters
  over the graph's :class:`~repro.decoder.graph.EdgeTable` CSR
  incidence, cluster membership is a per-row union-find over
  ``(rows, nodes)`` parent tables with vectorized path compression, and
  the final correction peels the recorded spanning forest of every row
  simultaneously (leaf rounds over compact node instances).

Masks are int64, so the decoder takes graphs of at most
:data:`~repro.decoder.graph.INT64_OBSERVABLES` observables.  Rows are
independent in the arena and a group's memo entry is a pure function of
the group, so predictions are a pure per-row function: batch
composition, row order and memo state never change the output (the
``registry_contract`` analysis pass checks this for every registered
decoder).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.decoder.base import BatchDecoder, SortedMemo, _ragged_ranges, _unmask_rows, split_groups
from repro.decoder.graph import INT64_OBSERVABLES, DecodingGraph, EdgeTable
from repro.obs import metrics as _metrics

# Edges whose -log-likelihood weight rails to ~0 (probability pinned at
# the 0.499999 rail in Edge.weight) are grown in one step: half-edge
# increments of a vanishing weight would otherwise stall the frontier.
_ZERO_WEIGHT = 1e-5

# Growth rounds before the decoder declares non-convergence (a defect
# that can never become valid, e.g. a severed adjacency).
_MAX_ROUNDS = 10_000

# Upper bound on rows x max(nodes, edges) elements held live per arena
# chunk (its dense per-row tables).
_ARENA_CHUNK_ELEMS = 1 << 24

# Defects within this many hops (boundary excluded) share a group; the
# group path's exactness needs groups at least three hops apart.
_GROUP_HOPS = 2

# Group-memo entries kept before the memo is dropped wholesale (16 bytes
# each: an int64 key and an int64 mask).
_GROUP_MEMO_LIMIT = 1 << 18

# Largest group the memo (a base.SortedMemo) stores.  At d=11
# r=12, p=5e-4, groups of 1-2 defects recur in >= 99.9% of lookups, 3 in
# 91%, 4 in 77%, 5 in 13% and 6 or more in under 4%.
_MEMO_MAX_DEFECTS = 4

# Memo value of a group that is not local (masks are non-negative).
_NOT_LOCAL = -1

# One increment per batch and path.  A row's path is a pure function of
# the row, so uncached counts are deterministic per (seed, shard_shots).
_UF_ROWS = _metrics.counter(
    "repro_uf_rows_total",
    "Union-find rows by decode path (groups, row).",
    ("path",),
)


def _certify_shift(
    edges: EdgeTable, thresh: np.ndarray, shift: int
) -> Tuple[int, np.ndarray]:
    """Certify the detector shift ``shift`` (the graph's
    ``detector_shift``): ``(shift, down)``, where ``down[u]`` counts the
    shifts certified one after another below detector ``u``.  ``(0,
    zeros)`` when ``shift`` is 0, when no node is shiftable by it, or when
    the edge-id map is not increasing.
    """
    n = edges.node_count - 1
    none = (0, np.zeros(n, dtype=np.int64))
    if not 0 < shift < n:
        return none
    inner = edges.eb < n
    # Each edge's image: both detector ends shifted down, the boundary kept.
    key = edges.ea * edges.node_count + edges.eb
    order = np.argsort(key)
    image_key = key - shift * edges.node_count - np.where(inner, shift, 0)
    image = order[np.searchsorted(key, image_key, sorter=order).clip(max=key.size - 1)]
    mapped = (
        (edges.ea >= shift)
        & (key[image] == image_key)
        & (thresh[image] == thresh)
        & (edges.mask[image] == edges.mask)
    )
    deg = np.diff(edges.indptr)
    slot_node = np.repeat(np.arange(edges.node_count), deg)
    unmapped = np.zeros(edges.node_count, dtype=bool)
    unmapped[slot_node[~mapped[edges.inc_edge]]] = True
    shiftable = np.zeros(n, dtype=bool)
    shiftable[shift:] = (deg[shift:n] == deg[:n - shift]) & ~unmapped[shift:n]
    domain = np.zeros(key.size, dtype=bool)
    domain[edges.inc_edge[np.append(shiftable, False)[slot_node]]] = True
    if not shiftable.any() or np.any(np.diff(image[domain]) <= 0):
        return none
    # Runs of shiftable nodes along each residue class modulo the shift.
    blocks = np.zeros(-(-n // shift) * shift, dtype=bool)
    blocks[:n] = shiftable
    blocks = blocks.reshape(-1, shift)
    runs = np.cumsum(blocks, axis=0)
    runs -= np.maximum.accumulate(np.where(blocks, 0, runs), axis=0)
    return shift, runs.ravel()[:n]


def _find_rows(parent: np.ndarray, rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Vectorized union-find root lookup with per-query path compression."""
    if rows.size == 0:
        return nodes
    p = parent[rows, nodes]
    while True:
        gp = parent[rows, p]
        if np.array_equal(gp, p):
            break
        p = gp
    parent[rows, nodes] = p
    return p


class UnionFindDecoder(BatchDecoder):
    """Cluster-growth decoder on a :class:`DecodingGraph`.

    Args:
        graph: decoding graph to grow clusters on, with at most
            :data:`~repro.decoder.graph.INT64_OBSERVABLES` observables.
    """

    def __init__(self, graph: DecodingGraph) -> None:
        if graph.num_observables > INT64_OBSERVABLES:
            raise ValueError(
                f"union-find takes at most {INT64_OBSERVABLES} observables "
                f"(int64 masks); this graph has {graph.num_observables}"
            )
        self.graph = graph
        self._edges = graph.edge_table()
        # Touches that grow each edge (1 for zero-weight rails, else 2).
        self._thresh = np.where(self._edges.weight <= _ZERO_WEIGHT, 1, 2).astype(np.uint8)
        self._hop_cache: Optional[Tuple[np.ndarray, int]] = None
        self._period, self._down = _certify_shift(
            self._edges, self._thresh, graph.detector_shift
        )
        self._memo = SortedMemo(graph.num_detectors, _MEMO_MAX_DEFECTS, np.int64)

    @property
    def num_observables(self) -> int:
        return self.graph.num_observables

    def _decode_defects(
        self, row_of: np.ndarray, node: np.ndarray, rows: int
    ) -> np.ndarray:
        """Decode rows: local groups first, whole rows after."""
        masks, local = self._decode_groups(row_of, node, rows)
        rest = np.flatnonzero(~local)
        whole = ~local[row_of]
        # Rank of each whole row among the rest, its row in the arena.
        rank = np.cumsum(~local) - 1
        masks[rest] = self._arena_rows(rank[row_of[whole]], node[whole], rest.size)[0]
        if _metrics.enabled():
            _UF_ROWS.labels(path="groups").inc(rows - rest.size)
            _UF_ROWS.labels(path="row").inc(rest.size)
        return _unmask_rows(masks, self.graph.num_observables)

    def _arena_rows(
        self, row_of: np.ndarray, node: np.ndarray, rows: int, *, local: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_arena` over row chunks that bound its dense state."""
        width = max(self._edges.node_count, self._edges.ea.size, 1)
        chunk = max(1, _ARENA_CHUNK_ELEMS // width)
        masks = np.zeros(rows, dtype=np.int64)
        far = np.zeros(rows, dtype=bool)
        starts = np.arange(0, rows, chunk)
        bounds = np.searchsorted(row_of, np.append(starts, rows))
        for start, lo, hi in zip(starts.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
            part = slice(start, start + chunk)
            masks[part], far[part] = self._arena(
                row_of[lo:hi] - start, node[lo:hi], min(chunk, rows - start), local=local
            )
        return masks, far

    # -- group path ----------------------------------------------------------

    def _hop_bits(self) -> Tuple[np.ndarray, int]:
        """Bit ``v`` of row ``u`` is set iff ``v`` is within
        :data:`_GROUP_HOPS` hops of ``u``, boundary removed: the sparse
        ``(I + A)^_GROUP_HOPS`` built once, bit-packed for pair tests;
        and the largest ``|u - v|`` of a set bit."""
        if self._hop_cache is None:
            edges = self._edges
            n = edges.node_count - 1
            inner = edges.eb < n
            a, b, diag = edges.ea[inner], edges.eb[inner], np.arange(n)
            step = sparse.csr_matrix(
                (np.ones(2 * a.size + n, dtype=np.int32),
                 (np.concatenate([a, b, diag]), np.concatenate([b, a, diag]))),
                shape=(n, n),
            )
            reach = (step ** _GROUP_HOPS).tocoo()
            bits = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
            np.bitwise_or.at(
                bits, (reach.row, reach.col >> 3),
                (0x80 >> (reach.col & 7)).astype(np.uint8),
            )
            self._hop_cache = (bits, int(np.abs(reach.row - reach.col).max()))
        return self._hop_cache

    def _split(self, row_of: np.ndarray, node: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Every row's groups, the components of "within
        :data:`_GROUP_HOPS` hops", as
        :func:`~repro.decoder.base.split_groups` lists them."""
        hops, reach = self._hop_bits()

        def near(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            return ((hops[u, v >> 3] >> (7 - (v & 7))) & 1).astype(bool)

        return split_groups(row_of, node, near, reach)

    def _decode_groups(
        self, row_of: np.ndarray, node: np.ndarray, rows: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Group-path masks, and which rows have only local groups (the
        masks of other rows are partial; the caller decodes them whole)."""
        ids, first, sizes, row = self._split(row_of, node)
        # Shift every group down by all the whole shifts its defects allow.
        ids -= np.repeat(
            np.minimum.reduceat(self._down[ids], first) * self._period, sizes
        )
        vals = self._memo.solve(ids, first, sizes, self._solve_groups, _GROUP_MEMO_LIMIT)
        bad = vals == _NOT_LOCAL
        local = np.ones(rows, dtype=bool)
        local[row[bad]] = False
        masks = np.zeros(rows, dtype=np.int64)
        np.bitwise_xor.at(masks, row[~bad], vals[~bad])
        return masks, local

    def _solve_groups(
        self, ids: np.ndarray, first: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Local-arena masks of the groups ``ids[first[i]:first[i] +
        sizes[i]]``, run as pseudo-rows; :data:`_NOT_LOCAL` for a group
        that is not local."""
        members = _ragged_ranges(first, sizes, int(sizes.sum()))
        masks, far = self._arena_rows(
            np.repeat(np.arange(first.size), sizes), ids[members], first.size, local=True
        )
        return np.where(far, _NOT_LOCAL, masks)

    def _arena(
        self, row_of: np.ndarray, node: np.ndarray, rows: int, *, local: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Grow and peel every row of one chunk, given as sorted defect
        lists (row ``row_of[i]`` has defect ``node[i]``).

        Returns ``(masks, far)``: int64 observable masks per row and, with
        ``local`` (group pseudo-rows), a bool row mask of rows that
        stopped growing because they were not local; their masks are
        meaningless.

        Every node of every invalid cluster adds one touch to each
        un-grown incident edge, edges at threshold grow, and the
        resulting events apply as ensure-then-union in canonical
        (row, edge) order via a vectorized link loop.  Cluster validity
        (defect parity, boundary contact) is recomputed from the
        membership pairs at every round start rather than maintained
        incrementally.
        """
        edges = self._edges
        node_count = edges.node_count
        boundary = node_count - 1
        num_edges = edges.ea.size
        far = np.zeros(rows, dtype=bool)
        if node.size == 0:
            return np.zeros(rows, dtype=np.int64), far
        # Membership pairs; the initial members are exactly the defects,
        # and every node ensured later is not one.
        act_r = row_of
        act_n = node
        act_d = np.ones(node.size, dtype=bool)
        # Parent entries are written as nodes join a cluster; entries of
        # nodes outside every cluster are never read.
        parent = np.empty((rows, node_count), dtype=np.int64)
        parent[act_r, act_n] = act_n
        in_cl = np.zeros((rows, node_count), dtype=bool)
        in_cl[act_r, act_n] = True
        support = np.zeros(rows * num_edges, dtype=np.uint8)
        grown = np.zeros(rows * num_edges, dtype=bool)
        tree_rows: List[np.ndarray] = []
        tree_edges: List[np.ndarray] = []
        for round_no in range(_MAX_ROUNDS + 1):
            roots = _find_rows(parent, act_r, act_n)
            # Fresh cluster stats: defect parity and boundary contact per
            # root, scattered back to the membership pairs.
            root_keys = act_r * node_count + roots
            uniq_roots, root_inv = np.unique(root_keys, return_inverse=True)
            defects = np.bincount(root_inv[act_d], minlength=uniq_roots.size)
            touches = np.zeros(uniq_roots.size, dtype=bool)
            touches[root_inv[act_n == boundary]] = True
            live = ~(touches[root_inv] | (defects[root_inv] % 2 == 0))
            if local:
                # A non-defect node of an invalid cluster would touch edges
                # past one hop of the defects.
                far[act_r[live & ~act_d]] = True
                live &= ~far[act_r]
            if not live.any():
                break
            if round_no == _MAX_ROUNDS:
                raise self._convergence_error(
                    act_r, roots, live, defects[root_inv],
                    touches[root_inv], grown, num_edges,
                )
            # Rows whose clusters are all valid stop paying per-round cost.
            row_live = np.zeros(rows, dtype=bool)
            row_live[act_r[live]] = True
            keep = row_live[act_r]
            if not keep.all():
                act_r, act_n, act_d = act_r[keep], act_n[keep], act_d[keep]
                live = live[keep]
            rows_l = act_r[live]
            nodes_l = act_n[live]
            # One touch per (invalid-cluster node, incident un-grown edge).
            starts = edges.indptr[nodes_l]
            cnts = edges.indptr[nodes_l + 1] - starts
            nz = cnts > 0
            total = int(cnts.sum())
            if total == 0:
                continue
            pos = _ragged_ranges(starts[nz], cnts[nz], total)
            touched = np.repeat(rows_l[nz], cnts[nz]) * num_edges
            touched += edges.inc_edge[pos]
            touched = touched[~grown[touched]]
            if touched.size == 0:
                continue
            cand, counts = np.unique(touched, return_counts=True)
            support[cand] += counts.astype(np.uint8)
            ready = support[cand] >= self._thresh[cand % num_edges]
            newly = cand[ready]
            if newly.size == 0:
                continue
            grown[newly] = True
            new_r, new_n = self._union_grown_edges(
                newly, parent, in_cl, tree_rows, tree_edges,
                boundary, node_count, num_edges,
            )
            if new_r.size:
                act_r = np.concatenate([act_r, new_r])
                act_n = np.concatenate([act_n, new_n])
                act_d = np.concatenate([act_d, np.zeros(new_r.size, dtype=bool)])
        defects = row_of * node_count + node
        return self._peel_forest(rows, tree_rows, tree_edges, defects), far

    def _union_grown_edges(
        self,
        newly: np.ndarray,
        parent: np.ndarray,
        in_cl: np.ndarray,
        tree_rows: List[np.ndarray],
        tree_edges: List[np.ndarray],
        boundary: int,
        node_count: int,
        num_edges: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply one round's grown edges; returns the new (row, node) pairs.

        ``newly`` is sorted by flat (row, edge) key.  Endpoints outside
        any cluster are ensured as singletons first, turning every event
        into a union.  Unions run as a
        vectorized link loop: each pass links the higher-ranked root under
        the lower (strictly decreasing, hence acyclic and safe to apply
        simultaneously), first event per target root wins, losers retry
        next pass, and same-root events drop as cycles.  Roots rank by
        node id, except that the boundary ranks below every detector.
        """
        g_r = newly // num_edges
        g_e = newly % num_edges
        ends_a = self._edges.ea[g_e]
        ends_b = self._edges.eb[g_e]
        in_a = in_cl[g_r, ends_a]
        in_b = in_cl[g_r, ends_b]
        # Ensure fresh endpoints as singleton clusters (their own roots);
        # they join via the union loop below.
        fresh_r = np.concatenate([g_r[~in_a], g_r[~in_b]])
        fresh_n = np.concatenate([ends_a[~in_a], ends_b[~in_b]])
        if fresh_r.size:
            fresh_keys = np.unique(fresh_r * node_count + fresh_n)
            fresh_r = fresh_keys // node_count
            fresh_n = fresh_keys % node_count
            in_cl[fresh_r, fresh_n] = True
            parent[fresh_r, fresh_n] = fresh_n
        rem = np.arange(newly.size)
        tr: List[np.ndarray] = []
        te: List[np.ndarray] = []
        while rem.size:
            ru = _find_rows(parent, g_r[rem], ends_a[rem])
            rv = _find_rows(parent, g_r[rem], ends_b[rem])
            merge = ru != rv
            rem = rem[merge]
            if rem.size == 0:
                break
            ru = ru[merge]
            rv = rv[merge]
            # The boundary, the largest node id, ranks lowest: a cluster
            # holding it keeps it as root, so which root a group's events
            # target never depends on other groups sharing the boundary.
            at_boundary = (ru == boundary) | (rv == boundary)
            hi = np.where(at_boundary, np.minimum(ru, rv), np.maximum(ru, rv))
            lo = ru + rv - hi
            key = g_r[rem] * node_count + hi
            _, first = np.unique(key, return_index=True)
            win = np.zeros(rem.size, dtype=bool)
            win[first] = True
            widx = rem[win]
            parent[g_r[widx], hi[win]] = lo[win]
            tr.append(g_r[widx])
            te.append(g_e[widx])
            rem = rem[~win]
        if tr:
            tree_rows.append(np.concatenate(tr))
            tree_edges.append(np.concatenate(te))
        return fresh_r, fresh_n

    def _peel_forest(
        self,
        rows: int,
        tree_rows: List[np.ndarray],
        tree_edges: List[np.ndarray],
        defects: np.ndarray,
    ) -> np.ndarray:
        """Peel every row's spanning forest at once; returns int64 masks.

        ``defects`` holds the sorted ``row * node_count + node`` keys of
        the chunk's defects.

        A tree edge is flipped iff its leaf-side subtree holds odd defect
        parity, so the result is independent of peel order; leaves are
        removed in synchronized rounds over compact (row, node) instances.
        """
        masks = np.zeros(rows, dtype=np.int64)
        if not tree_rows:
            return masks
        edges = self._edges
        t_r = np.concatenate(tree_rows)
        t_e = np.concatenate(tree_edges)
        node_count = edges.node_count
        boundary = node_count - 1
        e_u = edges.ea[t_e]
        e_v = edges.eb[t_e]
        e_mask = edges.mask[t_e]
        keys = np.concatenate([t_r * node_count + e_u, t_r * node_count + e_v])
        inst_keys, inverse = np.unique(keys, return_inverse=True)
        count = t_e.size
        uid = np.asarray(inverse[:count], dtype=np.int64)
        vid = np.asarray(inverse[count:], dtype=np.int64)
        total = inst_keys.size
        deg = np.bincount(uid, minlength=total) + np.bincount(vid, minlength=total)
        xor_nbr = np.zeros(total, dtype=np.int64)
        np.bitwise_xor.at(xor_nbr, uid, vid)
        np.bitwise_xor.at(xor_nbr, vid, uid)
        xor_mask = np.zeros(total, dtype=np.int64)
        np.bitwise_xor.at(xor_mask, uid, e_mask)
        np.bitwise_xor.at(xor_mask, vid, e_mask)
        node_of = inst_keys % node_count
        row_of = inst_keys // node_count
        detector = node_of != boundary
        # Instance keys use the defect keys' base; the boundary is never
        # a defect.
        parity = np.isin(inst_keys, defects, assume_unique=True).astype(np.int64)
        while True:
            leaves = np.flatnonzero(detector & (deg == 1))
            if leaves.size == 0:
                break
            nbr = xor_nbr[leaves]
            # A two-node component has two mutual leaves; the larger
            # instance id defers so exactly one side peels the edge.
            skip = (deg[nbr] == 1) & detector[nbr] & (nbr < leaves)
            if skip.any():
                leaves = leaves[~skip]
                nbr = nbr[~skip]
            leaf_mask = xor_mask[leaves]
            odd = parity[leaves] == 1
            if odd.any():
                np.bitwise_xor.at(masks, row_of[leaves[odd]], leaf_mask[odd])
                np.bitwise_xor.at(parity, nbr[odd], 1)
            np.subtract.at(deg, nbr, 1)
            np.bitwise_xor.at(xor_nbr, nbr, leaves)
            np.bitwise_xor.at(xor_mask, nbr, leaf_mask)
            deg[leaves] = 0
        return masks

    def _convergence_error(
        self,
        act_r: np.ndarray,
        roots: np.ndarray,
        live: np.ndarray,
        pair_defects: np.ndarray,
        pair_touches: np.ndarray,
        grown: np.ndarray,
        num_edges: int,
    ) -> RuntimeError:
        row = int(act_r[live][0])
        sel = live & (act_r == row)
        state = {
            int(root): (int(dc), bool(tb))
            for root, dc, tb in zip(
                roots[sel], pair_defects[sel], pair_touches[sel]
            )
        }
        grown_count = int(grown[row * num_edges:(row + 1) * num_edges].sum())
        return RuntimeError(
            "union-find growth failed to converge after "
            f"{_MAX_ROUNDS} rounds; invalid clusters "
            f"(root -> (defects, touches_boundary)): {state}; "
            f"{grown_count} edges grown"
        )
