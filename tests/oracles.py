"""Reference oracles the decoders and the decoding engine are held to.

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
"""

import math

import networkx as nx
import numpy as np

from repro.sim.frame import FrameSimulator


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
