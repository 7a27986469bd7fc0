"""Minimum-weight perfect-matching decoder on a decoding graph.

Defects (flipped detectors) are matched pairwise or to the boundary along
shortest paths of the decoding graph; the predicted logical flip is the XOR
of observable masks along the matched paths.  Shortest paths are
precomputed once per graph (the experiment graphs are small).

Matching strategy: syndromes with up to :data:`_DP_MATCH_LIMIT` defects --
the overwhelming majority in sub-threshold Monte-Carlo runs -- are matched
exactly by a subset-sum dynamic program over the defect set (O(k 2^k),
microseconds for typical k <= 6), which is the engine's hot path.  Larger
syndromes fall back to networkx's blossom implementation via the standard
defect-graph + boundary-copy construction.  Both are exact minimum-weight
perfect matchings; ``matcher="blossom"`` forces the fallback everywhere
(the pre-engine baseline, kept for benchmarking and cross-checks).

Cluster decomposition: by default the defect set is first split into
clusters under the relation ``d(u, v) < d(u, B) + d(v, B)`` (matching the
pair directly is strictly cheaper than routing both to the boundary).  A
minimum-weight matching never needs a pair that violates it -- replacing
such a pair with two boundary matchings costs no more -- so clusters can
be matched independently without changing the optimal weight.  Each
cluster's observable mask is memoized in a cross-call cache: in
sub-threshold Monte-Carlo runs full syndromes are mostly unique (dedup
stops helping as ``d`` grows) but they are combinations of a *small*
recurring set of local defect clusters, so the cache converts the
per-unique-syndrome O(k 2^k) matching into a few dict lookups.
``decompose=False`` restores the whole-syndrome matcher (the
verification/baseline mode, like ``matcher="blossom"``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import networkx as nx
import numpy as np

from repro.decoder.base import BatchDecoder, SparseTables, _unmask_rows
from repro.decoder.graph import BOUNDARY, DecodingGraph

# Largest defect count handled by the exact subset-DP matcher; beyond it
# the O(k 2^k) table loses to blossom.
_DP_MATCH_LIMIT = 12

# Cluster-mask cache entries kept before the cache is dropped wholesale; at
# sub-threshold noise the reachable cluster population is tiny, so this is
# purely a runaway guard for above-threshold inputs.
_CLUSTER_CACHE_LIMIT = 1 << 18

# Largest defect count solved by subset DP on the *decomposed* path --
# the batched table fill amortizes the 2^k blowup over whole defect-count
# groups, so it stays ahead of blossom notably longer than the scalar
# whole-syndrome limit (measured crossover ~14-15 at d=7 cluster rates).
_VEC_DP_LIMIT = 14
# Vectorized subset-DP is used for a defect-count group when it has at
# least this many clusters (below that, per-cluster scalar DP has less
# overhead) ...
_VEC_DP_MIN_GROUP = 4
# ... and only while observable masks fit an int64 table.
_VEC_DP_MAX_OBS = 62

# Popcount-layer tables for the batched DP, memoized per defect count:
# (lowest-set-bit index, mask minus lowest bit, masks grouped by popcount).
_MASK_TABLES: Dict[int, Tuple[np.ndarray, np.ndarray, List[np.ndarray]]] = {}


def _mask_tables(k: int) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    cached = _MASK_TABLES.get(k)
    if cached is None:
        masks = np.arange(1 << k, dtype=np.int64)
        low = masks & -masks
        low_i = np.zeros(1 << k, dtype=np.int64)
        low_i[1:] = np.round(np.log2(low[1:])).astype(np.int64)
        rest = masks ^ low
        popcount = np.zeros(1 << k, dtype=np.int64)
        tmp = masks.copy()
        while tmp.any():
            popcount += tmp & 1
            tmp >>= 1
        layers = [np.flatnonzero(popcount == c) for c in range(1, k + 1)]
        cached = (low_i, rest, layers)
        _MASK_TABLES[k] = cached
    return cached


class MWPMDecoder(BatchDecoder):
    """Decoder instance bound to one decoding graph.

    Args:
        graph: decoding graph to match on.
        matcher: ``"auto"`` (subset-DP for small defect sets, blossom
            otherwise) or ``"blossom"`` (always blossom).
        decompose: when True (default), split defects into independent
            clusters and memoize per-cluster matchings (see the module
            docstring); ``False`` matches every syndrome whole -- the
            slower baseline kept for verification and benchmarking.
    """

    def __init__(
        self, graph: DecodingGraph, matcher: str = "auto", decompose: bool = True
    ) -> None:
        if matcher not in ("auto", "blossom"):
            raise ValueError(f"unknown matcher {matcher!r}")
        self.graph = graph
        self.matcher = matcher
        self.decompose = decompose
        self._cluster_cache: Dict[Tuple[int, ...], int] = {}
        self._dense: "Tuple[np.ndarray, np.ndarray] | None" = None
        self._sparse: "SparseTables | bool | None" = None
        self._nx = nx.Graph()
        self._nx.add_node(BOUNDARY)
        for det in range(graph.num_detectors):
            self._nx.add_node(det)
        for edge in graph.edges:
            if len(edge.detectors) == 1:
                u, v = edge.detectors[0], BOUNDARY
            else:
                u, v = edge.detectors
            obs_mask = _mask(edge.observables, graph.num_observables)
            # Keep the lighter of parallel edges (merging already done).
            if self._nx.has_edge(u, v) and self._nx[u][v]["weight"] <= edge.weight:
                continue
            self._nx.add_edge(u, v, weight=edge.weight, obs=obs_mask)
        self._distance: Dict[int, Dict[int, float]] = {}
        self._path_obs: Dict[int, Dict[int, int]] = {}
        self._precompute_paths()

    def _precompute_paths(self) -> None:
        for source in self._nx.nodes:
            lengths, paths = nx.single_source_dijkstra(self._nx, source, weight="weight")
            self._distance[source] = lengths
            obs_map: Dict[int, int] = {}
            for dest, path in paths.items():
                mask = 0
                for a, b in zip(path, path[1:]):
                    mask ^= self._nx[a][b]["obs"]
                obs_map[dest] = mask
            self._path_obs[source] = obs_map

    # -- decoding -----------------------------------------------------------

    @property
    def num_observables(self) -> int:
        return self.graph.num_observables

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Predict observable flips for one shot.

        Args:
            syndrome: uint8 vector over detectors (1 = defect).

        Returns:
            uint8 vector over observables with the predicted flips.
        """
        defects = [int(d) for d in np.flatnonzero(syndrome)]
        prediction = 0
        if defects:
            if self.decompose:
                prediction = self._match_decomposed(defects)
            else:
                prediction = self._match(defects)
        return _unmask(prediction, self.graph.num_observables)

    def _cluster_split(self, defects: List[int]) -> List[Tuple[int, ...]]:
        """Split defects into independently-matchable clusters.

        Clusters are the connected components of the relation
        ``d(u, v) < d(u, B) + d(v, B)``; cutting every other pair is
        weight-neutral (route both ends to the boundary instead), so the
        per-cluster optima compose into a global minimum-weight matching.
        """
        k = len(defects)
        if k == 1:
            if defects[0] not in self._distance:
                raise ValueError(
                    f"defects outside the decoding graph: {defects}"
                )
            return [(defects[0],)]
        dist, _ = self._dense_tables()
        n = dist.shape[0] - 1
        defs = np.asarray(defects, dtype=np.intp)
        if np.isinf(dist[defs, defs]).any():
            unreachable = [d for d in defects if d not in self._distance]
            raise ValueError(f"defects outside the decoding graph: {unreachable}")
        bc = dist[defs, n]
        linked = dist[defs[:, None], defs[None, :]] < bc[:, None] + bc[None, :]
        parent = list(range(k))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in np.argwhere(np.triu(linked, 1)):
            ri, rj = find(int(i)), find(int(j))
            if ri != rj:
                parent[rj] = ri
        clusters: Dict[int, List[int]] = {}
        for i in range(k):
            clusters.setdefault(find(i), []).append(defects[i])
        return [tuple(members) for members in clusters.values()]

    def _cluster_split_batch(
        self, defs: np.ndarray
    ) -> List[List[Tuple[int, ...]]]:
        """:meth:`_cluster_split` for many same-count defect rows at once.

        The linkage test and transitive closure run vectorized over the
        whole ``(rows, k)`` batch; only the final member grouping walks
        rows in Python.  Produces exactly the clusters (and ordering) of
        the scalar splitter.
        """
        rows, k = defs.shape
        dist, _ = self._dense_tables()
        n = dist.shape[0] - 1
        if np.isinf(dist[defs, defs]).any():
            # Rare path: re-raise with the scalar splitter's message.
            for row in defs:
                self._cluster_split([int(d) for d in row])
        if k == 1:
            return [[(int(row[0]),)] for row in defs]
        bc = dist[defs, n]
        linked = dist[defs[:, :, None], defs[:, None, :]] < (
            bc[:, :, None] + bc[:, None, :]
        )
        # Shortest pair paths may route *through* the boundary node, where
        # d(u, v) equals d(u, B) + d(v, B) up to float associativity and
        # the strict comparison can come out asymmetric.  The scalar
        # splitter reads only i < j entries; mirror the upper triangle so
        # both splitters link exactly the same pairs.
        upper = np.triu(linked, 1)
        reach = upper | upper.transpose(0, 2, 1) | np.eye(k, dtype=bool)
        for _ in range(max(1, int(np.ceil(np.log2(k))))):
            reach = np.matmul(reach.astype(np.uint8), reach.astype(np.uint8)) > 0
        # Component label = lowest member index reaching each defect
        # (reach is symmetric, so labels are consistent per component).
        labels = np.argmax(reach, axis=1)
        out: List[List[Tuple[int, ...]]] = []
        for r in range(rows):
            groups: Dict[int, List[int]] = {}
            row_defs = defs[r]
            row_labels = labels[r]
            for i in range(k):
                groups.setdefault(int(row_labels[i]), []).append(int(row_defs[i]))
            out.append([tuple(members) for members in groups.values()])
        return out

    def _match_decomposed(self, defects: List[int]) -> int:
        prediction = 0
        for cluster in self._cluster_split(defects):
            prediction ^= self._cluster_mask(cluster)
        return prediction

    def _cluster_mask(self, cluster: Tuple[int, ...]) -> int:
        cached = self._cluster_cache.get(cluster)
        if cached is None:
            self._solve_clusters([cluster])
            cached = self._cluster_cache[cluster]
        return cached

    def _cache_cluster(self, cluster: Tuple[int, ...], mask: int) -> None:
        if len(self._cluster_cache) >= _CLUSTER_CACHE_LIMIT:
            self._cluster_cache.clear()
        self._cluster_cache[cluster] = mask

    # -- sparse fast path ----------------------------------------------------

    def _sparse_tables(self) -> "SparseTables | None":
        """Closed-form <= 2-defect corrections from the dense path tables.

        A single defect matches the boundary (``bobs[u]``); a pair matches
        directly iff ``d(u, v) < d(u, B) + d(v, B)`` -- the cluster
        relation *and* the subset DP's strict-improvement rule, so ties
        resolve exactly as in :meth:`_match_dp` -- and otherwise routes
        both ends to the boundary.  Only valid for the DP matcher (blossom
        breaks degenerate ties arbitrarily); infeasible entries fall
        through to the full path, which raises the usual error.
        """
        if self._sparse is None:
            if (
                self.matcher != "auto"
                or self.graph.num_observables > _VEC_DP_MAX_OBS
            ):
                self._sparse = False
            else:
                dist, obs = self._dense_tables()
                n = dist.shape[0] - 1
                num_obs = self.graph.num_observables
                bc = dist[:n, n]
                bobs = obs[:n, n]
                singles_ok = np.isfinite(bc)
                singles = _unmask_rows(bobs, num_obs)
                singles[~singles_ok] = 0
                bsum = bc[:, None] + bc[None, :]
                use_pair = dist[:n, :n] < bsum
                pair_mask = np.where(
                    use_pair, obs[:n, :n], bobs[:, None] ^ bobs[None, :]
                )
                pair_ok = use_pair | np.isfinite(bsum)
                self._sparse = SparseTables(
                    singles=singles,
                    singles_ok=singles_ok,
                    pair_mask=pair_mask,
                    pair_ok=pair_ok,
                )
        return self._sparse or None

    # -- batched decoding ---------------------------------------------------

    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode unique syndrome rows with cross-row cluster batching.

        All rows are decomposed first, the union of their uncached
        clusters is solved in defect-count groups (vectorized subset DP
        over every group member at once), and the per-row predictions are
        composed from the cluster cache.  The cluster masks are identical
        to the scalar path's, so the output does not depend on how rows
        are batched.
        """
        if not self.decompose:
            return super()._decode_unique(syndromes)
        num_obs = self.graph.num_observables
        row_clusters: List[List[Tuple[int, ...]]] = [
            [] for _ in range(syndromes.shape[0])
        ]
        pending: Dict[Tuple[int, ...], None] = {}
        counts = syndromes.sum(axis=1)
        for k in np.unique(counts):
            k = int(k)
            if k == 0:
                continue
            rows = np.flatnonzero(counts == k)
            # np.nonzero walks rows in order with ascending columns, so
            # the reshape yields each row's sorted defect list.
            defs = np.nonzero(syndromes[rows])[1].reshape(rows.size, k)
            for row, clusters in zip(rows, self._cluster_split_batch(defs)):
                row_clusters[row] = clusters
                for cluster in clusters:
                    if cluster not in self._cluster_cache:
                        pending[cluster] = None
        self._solve_clusters(list(pending))
        out = np.zeros((syndromes.shape[0], num_obs), dtype=np.uint8)
        cache = self._cluster_cache
        for i, clusters in enumerate(row_clusters):
            mask = 0
            for cluster in clusters:
                cached = cache.get(cluster)
                if cached is None:
                    # The runaway guard may have dropped the whole cache
                    # mid-batch (above-threshold inputs); re-solve.
                    cached = self._cluster_mask(cluster)
                mask ^= cached
            if mask:
                out[i] = _unmask(mask, num_obs)
        return out

    def _solve_clusters(self, clusters: List[Tuple[int, ...]]) -> None:
        """Match uncached clusters, vectorizing defect-count groups.

        The solve strategy depends only on the defect count (DP up to
        :data:`_VEC_DP_LIMIT`, blossom beyond), never on the group size:
        the vectorized and scalar DPs resolve ties identically, so a
        cluster's cached mask is independent of how -- and with what
        batch-mates -- it was first solved.
        """
        by_size: Dict[int, List[Tuple[int, ...]]] = {}
        for cluster in clusters:
            by_size.setdefault(len(cluster), []).append(cluster)
        for k, group in sorted(by_size.items()):
            dp = (
                self.matcher == "auto"
                and k <= _VEC_DP_LIMIT
                and self.graph.num_observables <= _VEC_DP_MAX_OBS
            )
            if dp and len(group) >= _VEC_DP_MIN_GROUP:
                defs = np.asarray(group, dtype=np.intp)
                masks = self._match_dp_batch(defs)
                for cluster, mask in zip(group, masks):
                    self._cache_cluster(cluster, int(mask))
            elif dp:
                for cluster in group:
                    self._cache_cluster(cluster, self._match_dp(list(cluster)))
            elif self.matcher == "auto":
                for cluster in group:
                    self._cache_cluster(
                        cluster, self._match_blossom_reduced(list(cluster))
                    )
            else:
                for cluster in group:
                    self._cache_cluster(cluster, self._match(list(cluster)))

    def _dense_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """(distance, path-observable-mask) matrices over detectors+boundary.

        Row/column ``num_detectors`` is the boundary; unreachable pairs
        hold ``inf`` distance and mask 0.  Built lazily on the first
        batched decode.
        """
        if self._dense is None:
            n = self.graph.num_detectors
            dist = np.full((n + 1, n + 1), math.inf)
            # Observable masks only fit the int64 table up to
            # _VEC_DP_MAX_OBS observables (the sequential decoder's
            # pseudo-observable graphs exceed it); the vectorized DP is
            # disabled beyond that, so the mask table is never read.
            with_obs = self.graph.num_observables <= _VEC_DP_MAX_OBS
            obs = np.zeros((n + 1, n + 1), dtype=np.int64) if with_obs else None
            for u, lengths in self._distance.items():
                ui = n if u == BOUNDARY else u
                obs_row = self._path_obs[u]
                for v, length in lengths.items():
                    vi = n if v == BOUNDARY else v
                    dist[ui, vi] = length
                    if with_obs:
                        obs[ui, vi] = obs_row[v]
            self._dense = (dist, obs)
        return self._dense

    def _match_dp_batch(self, defs: np.ndarray) -> List[int]:
        """Subset DP over every row of ``defs`` (shape (B, k)) at once.

        The table is filled popcount layer by popcount layer, with each
        update vectorized over *both* the batch rows and the layer's
        masks, so the Python overhead is O(k^2) numpy calls regardless of
        batch size.  The recurrence, candidate order (boundary first,
        then partners in ascending defect order), and strict-improvement
        rule are the same as :meth:`_match_dp`, so each row's matching
        (including tie resolution) is identical to the scalar path's.
        """
        batch, k = defs.shape
        dist, obs = self._dense_tables()
        n = dist.shape[0] - 1
        bcost = dist[defs, n]
        bobs = obs[defs, n]
        pcost = dist[defs[:, :, None], defs[:, None, :]]
        pobs = obs[defs[:, :, None], defs[:, None, :]]
        size = 1 << k
        low_i, rest_of, layers = _mask_tables(k)
        cost = np.full((batch, size), math.inf)
        choice = np.full((batch, size), -1, dtype=np.int8)
        cost[:, 0] = 0.0
        for layer in layers:
            i_l = low_i[layer]
            rest_l = rest_of[layer]
            best = bcost[:, i_l] + cost[:, rest_l]
            best_j = np.full((batch, layer.size), -1, dtype=np.int8)
            for j in range(k):
                has = ((rest_l >> j) & 1) == 1
                if not has.any():
                    continue
                i_s = i_l[has]
                rest_s = rest_l[has]
                candidate = pcost[:, i_s, j] + cost[:, rest_s ^ (1 << j)]
                current = best[:, has]
                better = candidate < current
                if better.any():
                    best[:, has] = np.where(better, candidate, current)
                    chosen = best_j[:, has]
                    chosen[better] = j
                    best_j[:, has] = chosen
            cost[:, layer] = best
            choice[:, layer] = best_j
        full = size - 1
        infeasible = np.isinf(cost[:, full])
        if infeasible.any():
            row = int(np.flatnonzero(infeasible)[0])
            raise ValueError(
                f"MWPM matching is not perfect: defects "
                f"{[int(d) for d in defs[row]]} cannot all be paired or "
                "routed to the boundary; the decoding graph cannot "
                "explain this syndrome"
            )
        out: List[int] = []
        for r in range(batch):
            prediction = 0
            mask = full
            row_choice = choice[r]
            while mask:
                i = (mask & -mask).bit_length() - 1
                j = int(row_choice[mask])
                if j < 0:
                    prediction ^= int(bobs[r, i])
                    mask ^= 1 << i
                else:
                    prediction ^= int(pobs[r, i, j])
                    mask ^= (1 << i) | (1 << j)
            out.append(prediction)
        return out

    def _match(self, defects: List[int]) -> int:
        """Exact minimum-weight matching of the defect set."""
        unreachable = [d for d in defects if d not in self._distance]
        if unreachable:
            raise ValueError(f"defects outside the decoding graph: {unreachable}")
        if self.matcher == "auto" and len(defects) <= _DP_MATCH_LIMIT:
            return self._match_dp(defects)
        return self._match_blossom(defects)

    def _match_dp(self, defects: List[int]) -> int:
        """Subset DP: each defect pairs with a partner or the boundary.

        ``cost[mask]`` is the minimal weight to resolve the defect subset
        ``mask``; the lowest defect in the subset either matches the
        boundary or one of the remaining defects.  Exact for any defect
        count (the boundary absorbs arbitrarily many), and detects
        infeasible syndromes as an infinite total cost.
        """
        k = len(defects)
        boundary_cost = [
            self._distance[u].get(BOUNDARY, math.inf) for u in defects
        ]
        pair_cost = [
            [self._distance[u].get(v, math.inf) for v in defects] for u in defects
        ]
        size = 1 << k
        cost = [math.inf] * size
        choice: List[Tuple[int, int]] = [(-1, -1)] * size
        cost[0] = 0.0
        for mask in range(1, size):
            i = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << i)
            best = boundary_cost[i] + cost[rest]
            best_choice = (i, -1)
            row = pair_cost[i]
            submask = rest
            while submask:
                j = (submask & -submask).bit_length() - 1
                submask &= submask - 1
                candidate = row[j] + cost[rest ^ (1 << j)]
                if candidate < best:
                    best = candidate
                    best_choice = (i, j)
            cost[mask] = best
            choice[mask] = best_choice
        full = size - 1
        if math.isinf(cost[full]):
            raise ValueError(
                f"MWPM matching is not perfect: defects {defects} cannot all "
                "be paired or routed to the boundary; the decoding graph "
                "cannot explain this syndrome"
            )
        prediction = 0
        mask = full
        while mask:
            i, j = choice[mask]
            if j < 0:
                prediction ^= self._path_obs[defects[i]][BOUNDARY]
                mask ^= 1 << i
            else:
                prediction ^= self._path_obs[defects[i]][defects[j]]
                mask ^= (1 << i) | (1 << j)
        return prediction

    def _match_blossom_reduced(self, defects: List[int]) -> int:
        """Boundary-reduced blossom for large decomposed clusters.

        With every defect boundary-reachable, minimizing
        ``sum_pairs d(u,v) + sum_unmatched d(u,B)`` equals maximizing the
        *gain* ``d(u,B) + d(v,B) - d(u,v)`` over a (possibly partial)
        matching -- unmatched defects route to the boundary.  That is a
        max-weight matching on just ``k`` defect nodes with only
        positive-gain edges (the cluster relation's edges), a much
        smaller graph than :meth:`_match_blossom`'s boundary-copy
        construction, which stays in-tree as the historical baseline.
        Exact minimum weight either way; degenerate ties may resolve
        differently.
        """
        boundary_dist = [
            self._distance[u].get(BOUNDARY, math.inf) for u in defects
        ]
        if any(math.isinf(b) for b in boundary_dist):
            # Boundaryless defects break the reduction; use the copy
            # construction (it also reports infeasibility properly).
            return self._match_blossom(defects)
        match_graph = nx.Graph()
        match_graph.add_nodes_from(range(len(defects)))
        for i, u in enumerate(defects):
            row = self._distance[u]
            for j in range(i + 1, len(defects)):
                dist = row.get(defects[j])
                if dist is None:
                    continue
                gain = boundary_dist[i] + boundary_dist[j] - dist
                if gain > 0:
                    match_graph.add_edge(i, j, weight=gain)
        matching = nx.algorithms.matching.max_weight_matching(match_graph)
        prediction = 0
        matched = set()
        for i, j in matching:
            prediction ^= self._path_obs[defects[i]][defects[j]]
            matched.add(i)
            matched.add(j)
        for i, u in enumerate(defects):
            if i not in matched:
                prediction ^= self._path_obs[u][BOUNDARY]
        return prediction

    def _match_blossom(self, defects: List[int]) -> int:
        """Blossom matching on the defect graph with boundary copies.

        Defect-defect edges no cheaper than routing both ends to the
        boundary are pruned up front: a minimum-weight matching never
        needs them (replace the pair with its two boundary matchings), and
        they dominate the blossom run time on large defect sets.
        """
        boundary_dist = [
            self._distance[u].get(BOUNDARY, math.inf) for u in defects
        ]
        match_graph = nx.Graph()
        for i, u in enumerate(defects):
            match_graph.add_node(("d", i))
            match_graph.add_node(("b", i))
            if not math.isinf(boundary_dist[i]):
                match_graph.add_edge(("d", i), ("b", i), weight=boundary_dist[i])
            for j in range(i + 1, len(defects)):
                v = defects[j]
                dist = self._distance[u].get(v)
                if dist is not None and dist < boundary_dist[i] + boundary_dist[j]:
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
        prediction = 0
        for a, b in matching:
            if a[0] == "b" and b[0] == "b":
                continue
            if a[0] == "d" and b[0] == "d":
                u, v = defects[a[1]], defects[b[1]]
                prediction ^= self._path_obs[u][v]
            else:
                defect_node = a if a[0] == "d" else b
                u = defects[defect_node[1]]
                prediction ^= self._path_obs[u][BOUNDARY]
        return prediction


def _mask(observables, num_observables: int) -> int:
    mask = 0
    for obs in observables:
        if obs >= num_observables:
            raise ValueError(f"observable index {obs} out of range")
        mask |= 1 << obs
    return mask


def _unmask(mask: int, num_observables: int) -> np.ndarray:
    out = np.zeros(num_observables, dtype=np.uint8)
    for i in range(num_observables):
        out[i] = (mask >> i) & 1
    return out
