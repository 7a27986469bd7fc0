"""Decoding graph construction from a detector error model.

Mechanisms flipping one or two detectors become (boundary) edges.
Mechanisms flipping more than two detectors -- which arise from error
propagation through transversal CNOTs (paper Sec. II.4) -- are decomposed
into products of existing edges, the standard correlated-decomposition used
when matching transversal-gate circuits.  Each component block inherits the
logical-observable mask of the simple mechanism with the same symptom, so
matched paths predict observables consistently; any residual observable
difference rides on the first block.  Parallel edges are merged with
XOR-convolved probabilities.

Decoders read the graph through one flat format,
:meth:`DecodingGraph.edge_table`: an :class:`EdgeTable` of endpoint,
weight and observable-mask columns plus CSR incidence, with the boundary
as node index ``num_detectors``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.noise.dem import DetectorErrorModel, ErrorMechanism

BOUNDARY = -1

# Observable masks are int64 up to this many observables; beyond it an
# EdgeTable holds Python-int masks (the sequential decoder's
# pseudo-observable graphs exceed it).
INT64_OBSERVABLES = 62


@dataclass
class Edge:
    """One matchable error: flips ``detectors`` (1 or 2) and ``observables``."""

    detectors: Tuple[int, ...]
    probability: float
    observables: FrozenSet[int] = frozenset()

    @property
    def weight(self) -> float:
        """-log-likelihood weight; railed for probabilities near 1/2."""
        p = min(max(self.probability, 1e-15), 0.499999)
        return math.log((1 - p) / p)


class EdgeTable(NamedTuple):
    """Flat edge columns and CSR incidence of a :class:`DecodingGraph`.

    Edges are in :attr:`DecodingGraph.edges` order, with ``ea <= eb`` and
    the boundary as node index ``num_detectors`` (so a boundary edge has
    ``eb == num_detectors``).  Node ``u``'s incident edges are
    ``inc_edge[indptr[u]:indptr[u + 1]]``, in edge order.
    """

    node_count: int  # detectors + 1 (boundary at index num_detectors)
    ea: np.ndarray  # (E,) int64 lower endpoint
    eb: np.ndarray  # (E,) int64 upper endpoint
    weight: np.ndarray  # (E,) float64 -log-likelihood weight
    mask: np.ndarray  # (E,) int64 observable mask; object (int) beyond INT64_OBSERVABLES
    indptr: np.ndarray  # (node_count + 1,) int64 CSR offsets
    inc_edge: np.ndarray  # (2E,) int64 incident edge per CSR slot


class DecodingGraph:
    """Matching graph: detectors plus a single boundary node.

    ``detector_shift`` is the round's detector count, copied from the model
    by :meth:`from_dem` (0 without a round and on hand-built graphs);
    union-find certifies its round shift against it.
    """

    def __init__(self, num_detectors: int, num_observables: int) -> None:
        self.num_detectors = num_detectors
        self.num_observables = num_observables
        self.detector_shift = 0
        self._edges: Dict[FrozenSet[int], Edge] = {}

    # -- construction -------------------------------------------------------

    def add_mechanism(
        self,
        detectors: Tuple[int, ...],
        probability: float,
        observables: FrozenSet[int],
    ) -> None:
        """Insert an edge, merging with any parallel edge."""
        if len(detectors) == 1:
            key = frozenset((detectors[0], BOUNDARY))
        elif len(detectors) == 2:
            key = frozenset(detectors)
        else:
            raise ValueError(f"edge must touch 1 or 2 detectors, got {detectors}")
        existing = self._edges.get(key)
        if existing is None:
            self._edges[key] = Edge(detectors, probability, observables)
            return
        if existing.observables == observables:
            p = existing.probability
            existing.probability = p * (1 - probability) + probability * (1 - p)
        elif probability > existing.probability:
            # Conflicting logical hypotheses: keep the likelier one.
            existing.observables = observables
            existing.probability = probability
        # An unlikelier conflicting mechanism is dropped (approximation).

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges.values())

    def edge_between(self, a: int, b: int) -> Optional[Edge]:
        """Edge connecting detectors a and b (use BOUNDARY for the boundary)."""
        return self._edges.get(frozenset((a, b)))

    def edge_table(self) -> EdgeTable:
        """The graph's edges as one :class:`EdgeTable`.

        Computed per call (the graph is mutable); decoders take one at
        construction.
        """
        n, edges = self.num_detectors, self.edges
        bad = [d for e in edges for d in e.detectors if not 0 <= d < n]
        if bad:
            raise ValueError(f"detector index {bad[0]} out of range")
        bad = [o for e in edges for o in e.observables if not 0 <= o < self.num_observables]
        if bad:
            raise ValueError(f"observable index {bad[0]} out of range")
        ends = np.array([(*e.detectors, n)[:2] for e in edges], dtype=np.int64)
        ends = ends.reshape(len(edges), 2)
        ea, eb = ends.min(axis=1), ends.max(axis=1)
        wide = self.num_observables > INT64_OBSERVABLES
        masks = [sum(1 << o for o in e.observables) for e in edges]
        both = np.concatenate([ea, eb])
        eids = np.tile(np.arange(len(edges), dtype=np.int64), 2)
        indptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(np.bincount(both, minlength=n + 1), out=indptr[1:])
        return EdgeTable(
            node_count=n + 1,
            ea=ea,
            eb=eb,
            weight=np.array([e.weight for e in edges], dtype=np.float64),
            mask=np.array(masks, dtype=object if wide else np.int64),
            indptr=indptr,
            inc_edge=eids[np.lexsort((eids, both))],
        )

    @classmethod
    def from_dem(cls, dem: DetectorErrorModel) -> "DecodingGraph":
        """Build the graph, decomposing hyperedges into edge products.

        :func:`repro.analysis.verify_graph` checks the result with the
        ``dem_consistency`` diagnostics (isolated detectors, boundary
        reachability, edge-probability sanity).
        """
        graph = cls(dem.num_detectors, dem.num_observables)
        graph.detector_shift = dem.detector_shift or 0
        simple: List[ErrorMechanism] = []
        composite: List[ErrorMechanism] = []
        for mech in dem.mechanisms:
            if not mech.detectors:
                # Undetectable logical flip: un-matchable, contributes an
                # (exponentially small) error floor; ignored.
                continue
            if len(mech.detectors) <= 2:
                simple.append(mech)
            else:
                composite.append(mech)
        # Symptom -> observable mask of the likeliest simple mechanism.
        block_obs: Dict[FrozenSet[int], Tuple[float, FrozenSet[int]]] = {}
        for mech in simple:
            graph.add_mechanism(mech.detectors, mech.probability, frozenset(mech.observables))
            key = frozenset(mech.detectors)
            best = block_obs.get(key)
            if best is None or mech.probability > best[0]:
                block_obs[key] = (mech.probability, frozenset(mech.observables))
        known = set(block_obs)
        for mech in composite:
            for part, part_obs in _decompose(mech, known, block_obs):
                graph.add_mechanism(tuple(sorted(part)), mech.probability, part_obs)
        return graph

    @classmethod
    def from_dem_uniform(cls, dem: DetectorErrorModel) -> "DecodingGraph":
        """DEM topology with every edge pinned to probability 1e-3.

        The hand-built uniform-weight graph decoders historically matched
        on: shortest paths minimize hop count, not likelihood.  Observable
        masks (and hyperedge decomposition) still come from the true DEM,
        so only the *metric* is degraded -- the verification baseline the
        DEM-weighted graph must never decode worse than.
        """
        graph = cls.from_dem(dem)
        for edge in graph._edges.values():
            edge.probability = 1e-3
        return graph


def _decompose(
    mech: ErrorMechanism,
    known: set,
    block_obs: Dict[FrozenSet[int], Tuple[float, FrozenSet[int]]],
) -> List[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """Split a hyperedge into known 2/1-detector components.

    Prefers partitions whose every block is an existing simple-edge symptom
    (error propagation through a CNOT produces exactly such products).
    Falls back to greedy pairing in index order.  Each block carries the
    observable mask of its simple counterpart; any residual (the XOR
    mismatch against the composite mechanism's true flips) is folded into
    the first block so the total stays exact.
    """
    detectors = list(mech.detectors)
    blocks = _partition_into_known(detectors, known)
    if blocks is None:
        blocks = [
            frozenset(detectors[i : i + 2]) for i in range(0, len(detectors), 2)
        ]
    assigned: List[FrozenSet[int]] = []
    for block in blocks:
        entry = block_obs.get(block)
        assigned.append(entry[1] if entry is not None else frozenset())
    total: FrozenSet[int] = frozenset()
    for obs in assigned:
        total = total ^ obs
    residual = total ^ frozenset(mech.observables)
    if residual:
        assigned[0] = assigned[0] ^ residual
    return list(zip(blocks, assigned))


def _partition_into_known(detectors: List[int], known: set) -> Optional[List[FrozenSet[int]]]:
    """Exact cover of the detector set by known pair/singleton symptoms."""
    if not detectors:
        return []
    first = detectors[0]
    rest = detectors[1:]
    for i, other in enumerate(rest):
        pair = frozenset((first, other))
        if pair in known:
            remainder = rest[:i] + rest[i + 1 :]
            tail = _partition_into_known(remainder, known)
            if tail is not None:
                return [pair] + tail
    single = frozenset((first,))
    if single in known:
        tail = _partition_into_known(rest, known)
        if tail is not None:
            return [single] + tail
    return None
