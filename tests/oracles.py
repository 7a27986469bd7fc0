"""Reference oracles the decoders, samplers and DEM extraction are held to.

The engine oracles compose public pieces only, independently of the
engine's packed shard body:

* :func:`per_shot_decode` -- ``decoder.decode`` row by row, the per-shot
  baseline every batched/deduplicated decode must equal;
* :func:`reference_run` -- the engine's shard layout (one
  ``SeedSequence.spawn`` child per shard) sampled byte-per-bit with
  :meth:`~repro.sim.frame.FrameSimulator.sample` and decoded with
  ``decode_batch``, counting failures exactly as the engine does.

:func:`min_matching_weight` is the matching oracle: the minimum weight of
a matching where every vertex pairs up or goes to the boundary, by
networkx's ``max_weight_matching``.  MWPM's cluster matcher must equal it.

The production entry points each run one path, chosen from their input.
The paths they do not take -- or took before the current one -- are
rebuilt here as decoders and builders:

* :class:`WholeSyndromeMWPM` -- MWPM without cluster decomposition: each
  syndrome matched whole by :func:`subset_dp_matching` up to
  :data:`DP_MATCH_LIMIT` defects and by blossom beyond;
* :class:`ReferenceUnionFind` -- union-find's per-shot reference loop on
  every row, the baseline its group path and arena must equal;
* :func:`periodic_program`, :func:`linear_dem` and :func:`periodic_dem`
  -- a forced packed program or DEM extraction path, where
  ``compile_program`` and ``extract_dem`` pick one (the forced linear
  program is ``CompiledProgram(circuit)``); :func:`pin_program` makes a
  simulator sample with a given program.
"""

import math

import networkx as nx
import numpy as np

from repro.decoder.base import BatchDecoder
from repro.decoder.graph import BOUNDARY
from repro.decoder.mwpm import MWPMDecoder, _unmask
from repro.decoder.union_find import UnionFindDecoder
from repro.noise import dem as _dem
from repro.sim.frame import FrameSimulator
from repro.sim.periodic import PeriodicProgram, detect_period


def per_shot_decode(decoder, syndromes):
    """Decode each syndrome row on its own; (shots, num_observables) uint8."""
    syndromes = np.asarray(syndromes, dtype=np.uint8)
    out = np.zeros((syndromes.shape[0], decoder.num_observables), dtype=np.uint8)
    for i, row in enumerate(syndromes):
        out[i] = decoder.decode(row)
    return out


def reference_run(circuit, decoder, shots, seed, shard_shots, observable=0):
    """``(shots, failures, shards)`` of ``DecodingEngine.run`` by reference.

    ``observable=None`` fails a shot when any observable is mispredicted.
    """
    full, rest = divmod(shots, shard_shots)
    sizes = [shard_shots] * full + ([rest] if rest else [])
    sim = FrameSimulator(circuit)
    failures = 0
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        detectors, observables = sim.sample(size, rng=np.random.default_rng(child))
        predictions = decoder.decode_batch(detectors)
        if observable is None:
            wrong = (predictions != observables).any(axis=1)
        else:
            wrong = predictions[:, observable] != observables[:, observable]
        failures += int(wrong.sum())
    return shots, failures, len(sizes)


def min_matching_weight(pair_cost, boundary_cost):
    """Minimum matching weight with finite boundary costs, by networkx.

    Sending every vertex to the boundary costs ``sum(boundary_cost)``;
    pairing ``i`` with ``j`` instead saves ``b_i + b_j - c_ij``, so the
    optimum is that sum minus a maximum-weight matching of the savings.
    ``inf`` pair costs mean no pair.
    """
    k = len(boundary_cost)
    gains = nx.Graph()
    gains.add_nodes_from(range(k))
    for i in range(k):
        for j in range(i + 1, k):
            gain = boundary_cost[i] + boundary_cost[j] - pair_cost[i][j]
            if not math.isinf(pair_cost[i][j]) and gain > 0:
                gains.add_edge(i, j, weight=gain)
    matching = nx.max_weight_matching(gains)
    return float(sum(boundary_cost)) - sum(gains[i][j]["weight"] for i, j in matching)


# Largest defect count the whole-syndrome oracle matches by subset DP;
# beyond it the O(k 2^k) table loses to blossom.
DP_MATCH_LIMIT = 12


def subset_dp_matching(decoder, defects):
    """Exact minimum-weight matching of ``defects`` by subset DP, as pairs.

    ``cost[mask]`` is the minimal weight to resolve the defect subset
    ``mask``; its lowest defect either matches the boundary or one of the
    others.  Distances come from ``decoder`` (an :class:`MWPMDecoder`);
    pairs are ``(defect, partner)`` with ``BOUNDARY`` for a boundary match.
    Raises the decoder's "not perfect" error on an infeasible syndrome.
    """
    distance = decoder._distance
    k = len(defects)
    boundary_cost = [distance[u].get(BOUNDARY, math.inf) for u in defects]
    pair_cost = [[distance[u].get(v, math.inf) for v in defects] for u in defects]
    size = 1 << k
    cost = [math.inf] * size
    choice = [(-1, -1)] * size
    cost[0] = 0.0
    for mask in range(1, size):
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        best = boundary_cost[i] + cost[rest]
        best_choice = (i, -1)
        submask = rest
        while submask:
            j = (submask & -submask).bit_length() - 1
            submask &= submask - 1
            candidate = pair_cost[i][j] + cost[rest ^ (1 << j)]
            if candidate < best:
                best = candidate
                best_choice = (i, j)
        cost[mask] = best
        choice[mask] = best_choice
    if math.isinf(cost[size - 1]):
        raise ValueError(
            f"MWPM matching is not perfect: defects {defects} cannot all "
            "be paired or routed to the boundary"
        )
    pairs = []
    mask = size - 1
    while mask:
        i, j = choice[mask]
        if j < 0:
            pairs.append((defects[i], BOUNDARY))
            mask ^= 1 << i
        else:
            pairs.append((defects[i], defects[j]))
            mask ^= (1 << i) | (1 << j)
    return pairs


class WholeSyndromeMWPM(MWPMDecoder):
    """MWPM that matches every syndrome whole, without clusters.

    Subset DP up to ``dp_limit`` defects, blossom beyond; ``dp_limit=0``
    is blossom everywhere.  Unique rows decode one by one through
    :meth:`decode`; rows of at most two defects still take the inherited
    closed forms, which equal any exact matcher's up to weight ties.
    """

    def __init__(self, graph, dp_limit=DP_MATCH_LIMIT):
        super().__init__(graph)
        self.dp_limit = dp_limit

    def decode(self, syndrome):
        defects = [int(d) for d in np.flatnonzero(syndrome)]
        if len(defects) <= self.dp_limit:
            pairs = subset_dp_matching(self, defects)
        else:
            pairs = self._match_blossom(defects)
        return _unmask(self._pairs_mask(pairs), self.num_observables)

    def _decode_unique(self, syndromes):
        return BatchDecoder._decode_unique(self, syndromes)


class ReferenceUnionFind(BatchDecoder):
    """Union-find's per-shot reference loop, on every row."""

    def __init__(self, graph):
        self._decoder = UnionFindDecoder(graph)

    @property
    def num_observables(self):
        return self._decoder.num_observables

    def decode(self, syndrome):
        return self._decoder._decode_reference(np.asarray(syndrome, dtype=np.uint8))


def periodic_program(circuit):
    """The circuit's periodic packed program; raises without a round."""
    spec = detect_period(circuit)
    if spec is None:
        raise ValueError("periodic program needs a repeated round; none found")
    return PeriodicProgram(circuit, spec)


def pin_program(sim, program):
    """Make ``sim`` (a :class:`FrameSimulator`) sample with ``program``."""
    sim._compiled = program
    return sim


def linear_dem(circuit):
    """The circuit's DEM by linear propagation."""
    return _dem._assemble(circuit, _dem._linear_mechanisms(circuit))


def periodic_dem(circuit):
    """The circuit's DEM by periodic unrolling; raises when uncertified."""
    mechanisms, reason = _dem._periodic_mechanisms(circuit)
    if mechanisms is None:
        raise ValueError(f"periodic DEM extraction not certified: {reason}")
    return _dem._assemble(circuit, mechanisms)
