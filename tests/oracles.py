"""Reference oracles the decoders, samplers and DEM extraction are held to.

The engine oracles compose public pieces only, independently of the
engine's packed shard body:

* :func:`per_shot_decode` -- ``decoder.decode`` row by row, the per-shot
  baseline every batched/deduplicated decode must equal;
* :func:`reference_run` -- the engine's shard layout (one
  ``SeedSequence.spawn`` child per shard) sampled byte-per-bit with
  :func:`reference_sample` and decoded with ``decode_batch``, counting
  failures exactly as the engine does.

The frame oracles walk the op list one uint8 per (row, qubit), an
implementation of Clifford frame semantics independent of the packed
program (:mod:`repro.sim.compiled`) production runs:

* :func:`reference_sample` -- noisy shots, one row per shot, drawing each
  noise op's hits with the same :func:`~repro.sim.compiled.sample_channel`
  call in op order, so it equals ``FrameSimulator.sample`` bit for bit
  per seed;
* :func:`fault_symptoms` -- one row per fault of
  :func:`reference_mechanisms` (the per-channel tuple enumeration),
  injected alone at its channel's position and propagated through the
  whole circuit: the oracle of every :class:`~repro.noise.dem.FaultTable`
  row;
* :func:`linear_dem` -- those rows merged into the DEM by
  :func:`merge_mechanisms`, the per-object merge the array merge of
  :mod:`repro.noise.dem` must equal.

:func:`reference_gf2_reduce` is the GF(2) elimination oracle, one row
operation at a time, and :func:`reference_logicals` the logical-operator
choice of :class:`~repro.codes.css.CSSCode` as first written: every
null-space candidate rank-tested against the stabilizers up front.  The
code's lazy selection must pick the same representatives.

:func:`min_matching_weight` is the matching oracle: the minimum weight of
a matching where every vertex pairs up or goes to the boundary, by
networkx's ``max_weight_matching``.  MWPM's cluster matcher must equal it.
:func:`networkx_path_tables` is the shortest-path oracle: MWPM's distance
and path-observable tables rebuilt with one networkx Dijkstra per source.
:func:`cluster_split` is the cluster oracle: one defect row split by a
pairwise loop, the clusters and order MWPM's vectorized split must equal.
:func:`two_defect_mask` is MWPM's closed form for rows of at most two
defects, which its cluster path must equal on every such row.

The production entry points each run one path, chosen from their input.
The paths they do not take -- or took before the current one -- are
rebuilt here as decoders and builders:

* :class:`WholeSyndromeMWPM` -- MWPM without cluster decomposition: each
  syndrome matched whole by :func:`subset_dp_matching` up to
  :data:`DP_MATCH_LIMIT` defects and by blossom beyond;
* :class:`ReferenceUnionFind` -- union-find's sequential per-shot loop,
  in which clusters take turns within a round.  Its ``trace`` also says
  whether a row's answer depends on that turn order; on every row where
  it does not, the round-synchronous group path and arena must equal it
  (both oracle decoders decode their unique rows one at a time);
* :func:`periodic_program` and :func:`periodic_dem` -- a forced periodic
  packed program or DEM extraction, where ``compile_program`` and
  ``extract_dem`` pick one (the forced linear program is
  ``CompiledProgram(circuit)``); :func:`pin_program` makes a simulator
  sample with a given program.
"""

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.decoder.base import BatchDecoder, _unmask_rows, dense_rows
from repro.decoder.graph import BOUNDARY
from repro.decoder.mwpm import MWPMDecoder
from repro.decoder.union_find import _MAX_ROUNDS, _ZERO_WEIGHT
from repro.noise import dem as _dem
from repro.sim.compiled import noise_channel, sample_channel
from repro.sim.ops import NOISE, NOISE_2Q, NOISE_MARKERS, PAULI_1Q, PAULI_2Q
from repro.sim.periodic import PeriodicProgram, detect_period


def reference_gf2_reduce(matrix):
    """``(reduced form, pivot columns)`` over GF(2), one row XOR at a time."""
    m = (np.asarray(matrix, dtype=np.uint8) % 2).copy()
    rows, cols = m.shape
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        pivot = next((row for row in range(rank, rows) if m[row, col]), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for row in range(rows):
            if row != rank and m[row, col]:
                m[row] ^= m[rank]
        pivots.append(col)
    return m, pivots


def _reference_nullspace(matrix):
    m, pivots = reference_gf2_reduce(matrix)
    free_cols = [c for c in range(m.shape[1]) if c not in pivots]
    basis = np.zeros((len(free_cols), m.shape[1]), dtype=np.uint8)
    for i, free in enumerate(free_cols):
        basis[i, free] = 1
        for row, piv in enumerate(pivots):
            if m[row, free]:
                basis[i, piv] = 1
    return basis


def _reference_in_rowspace(matrix, vector):
    rank = len(reference_gf2_reduce(matrix)[1])
    return len(reference_gf2_reduce(np.vstack([matrix, vector]))[1]) == rank


def reference_logicals(hx, hz, k):
    """``(logical_xs, logical_zs)``: ``k`` anticommuting pairs, eagerly chosen.

    Every null-space vector of ``hz`` (``hx``) outside the row space of
    ``hx`` (``hz``) is a candidate; X candidates are taken in order when
    independent of the stabilizers and the pairs so far, each paired with
    the first unused Z candidate it anticommutes with, and the new pair is
    cleaned against the earlier ones.
    """
    x_candidates = [v for v in _reference_nullspace(hz) if not _reference_in_rowspace(hx, v)]
    z_candidates = [v for v in _reference_nullspace(hx) if not _reference_in_rowspace(hz, v)]
    xs, zs, used_z = [], [], []
    for xv in x_candidates:
        if len(xs) == k:
            break
        if _reference_in_rowspace(np.vstack([hx] + xs), xv):
            continue
        partner = next(
            (j for j, zv in enumerate(z_candidates)
             if j not in used_z and int(np.dot(xv, zv)) % 2 == 1),
            None,
        )
        if partner is None:
            continue
        zv = z_candidates[partner].copy()
        for i in range(len(xs)):
            if int(np.dot(zv, xs[i])) % 2:
                zv ^= zs[i]
            if int(np.dot(xv, zs[i])) % 2:
                xv = xv ^ xs[i]
        used_z.append(partner)
        xs.append(xv % 2)
        zs.append(zv % 2)
    return xs, zs


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
    failures = 0
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        detectors, observables = reference_sample(
            circuit, size, np.random.default_rng(child)
        )
        predictions = decoder.decode_batch(detectors)
        if observable is None:
            wrong = (predictions != observables).any(axis=1)
        else:
            wrong = predictions[:, observable] != observables[:, observable]
        failures += int(wrong.sum())
    return shots, failures, len(sizes)


def _propagate_frames(circuit, rows, on_noise):
    """Byte-per-bit Pauli-frame propagation of ``rows`` frames.

    Gates conjugate every row's X/Z frame, a measurement records the
    frame's anticommutation with the measured observable, and
    DETECTOR / OBSERVABLE_INCLUDE XOR measurement flips.  Each noise op
    is handed to ``on_noise(op, frame_x, frame_z)``.  Non-Clifford ops
    raise.  Returns the ``(rows, num_detectors)`` and
    ``(rows, num_observables)`` uint8 flip tables.
    """
    frame_x = np.zeros((rows, circuit.num_qubits), dtype=np.uint8)
    frame_z = np.zeros((rows, circuit.num_qubits), dtype=np.uint8)
    flips = np.zeros((rows, circuit.num_measurements), dtype=np.uint8)
    detectors = np.zeros((rows, circuit.num_detectors), dtype=np.uint8)
    observables = np.zeros((rows, circuit.num_observables), dtype=np.uint8)
    measurement = detector = 0
    for op in circuit.operations:
        name = op.name
        pairs = list(zip(op.targets[0::2], op.targets[1::2]))
        if name == "H":
            for q in op.targets:
                frame_x[:, q], frame_z[:, q] = frame_z[:, q].copy(), frame_x[:, q].copy()
        elif name in ("S", "S_DAG"):
            for q in op.targets:
                frame_z[:, q] ^= frame_x[:, q]
        elif name in ("X", "Y", "Z", "TICK") or name in NOISE_MARKERS:
            continue  # Paulis commute through the frame; markers are no-ops.
        elif name == "CX":
            for c, t in pairs:
                frame_x[:, t] ^= frame_x[:, c]
                frame_z[:, c] ^= frame_z[:, t]
        elif name == "CZ":
            for a, b in pairs:
                frame_z[:, a] ^= frame_x[:, b]
                frame_z[:, b] ^= frame_x[:, a]
        elif name == "SWAP":
            for a, b in pairs:
                frame_x[:, [a, b]] = frame_x[:, [b, a]]
                frame_z[:, [a, b]] = frame_z[:, [b, a]]
        elif name in ("R", "RX"):
            for q in op.targets:
                frame_x[:, q] = 0
                frame_z[:, q] = 0
        elif name in ("M", "MX"):
            frame = frame_x if name == "M" else frame_z
            for q in op.targets:
                flips[:, measurement] = frame[:, q]
                measurement += 1
        elif name == "DETECTOR":
            for rec in op.targets:
                detectors[:, detector] ^= flips[:, rec]
            detector += 1
        elif name == "OBSERVABLE_INCLUDE":
            for rec in op.targets:
                observables[:, int(op.arg)] ^= flips[:, rec]
        elif name in NOISE:
            on_noise(op, frame_x, frame_z)
        else:
            raise ValueError(f"frame simulator cannot run {name}")
    return detectors, observables


def reference_sample(circuit, shots, rng):
    """``(detectors, observables)`` uint8 tables of ``shots`` noisy shots.

    Each noise op draws its hits with one ``sample_channel`` call, in op
    order, and each hit flips single bytes of the (shot, qubit) frames,
    accumulating on repeated targets.
    """

    def draw(op, frame_x, frame_z):
        two = op.name in NOISE_2Q
        targets = np.asarray(op.targets, dtype=np.intp)
        firsts = targets[0::2] if two else targets
        channel = noise_channel(op)
        target, shot, outcome = sample_channel(rng, firsts.size, shots, channel)
        code = channel[2][outcome]
        a = firsts[target]
        np.bitwise_xor.at(frame_x, (shot, a), (code >> 3) & 1)
        np.bitwise_xor.at(frame_z, (shot, a), (code >> 2) & 1)
        if two:
            b = targets[1::2][target]
            np.bitwise_xor.at(frame_x, (shot, b), (code >> 1) & 1)
            np.bitwise_xor.at(frame_z, (shot, b), code & 1)

    return _propagate_frames(circuit, shots, draw)


def reference_mechanisms(circuit):
    """``(op, probability, x_qubits, z_qubits)`` for every fault, as tuples.

    One entry per elementary Pauli outcome per channel target, in circuit
    order, written out per channel from the op tables: the enumeration
    :func:`~repro.noise.dem.enumerate_mechanisms` must equal column for
    column.
    """
    mechanisms = []
    for op in circuit.operations:
        if op.name not in NOISE:
            continue
        if op.name == "X_ERROR":
            for q in op.targets:
                mechanisms.append((op, op.arg, (q,), ()))
        elif op.name == "Z_ERROR":
            for q in op.targets:
                mechanisms.append((op, op.arg, (), (q,)))
        elif op.name == "Y_ERROR":
            for q in op.targets:
                mechanisms.append((op, op.arg, (q,), (q,)))
        elif op.name in ("DEPOLARIZE1", "PAULI_CHANNEL_1"):
            probs = (
                (op.arg / 3.0,) * 3 if op.name == "DEPOLARIZE1" else op.args
            )
            for q in op.targets:
                for (x_bit, z_bit), p in zip(PAULI_1Q, probs):
                    mechanisms.append(
                        (op, p, (q,) if x_bit else (), (q,) if z_bit else ())
                    )
        elif op.name in ("DEPOLARIZE2", "PAULI_CHANNEL_2"):
            probs = (
                (op.arg / 15.0,) * 15 if op.name == "DEPOLARIZE2" else op.args
            )
            for a, b in zip(op.targets[0::2], op.targets[1::2]):
                for ((xa, za), (xb, zb)), p in zip(PAULI_2Q, probs):
                    xs = tuple(q for q, bit in ((a, xa), (b, xb)) if bit)
                    zs = tuple(q for q, bit in ((a, za), (b, zb)) if bit)
                    mechanisms.append((op, p, xs, zs))
        else:
            raise ValueError(f"no reference enumeration for {op.name!r}")
    return mechanisms


def fault_symptoms(circuit):
    """``(mechanisms, detectors, observables)``: one frame row per fault.

    Each of :func:`reference_mechanisms`' faults is injected alone into
    its own row at its channel's position and propagated through the
    whole circuit; row ``f`` of the uint8 tables is fault ``f``'s symptom.
    """
    mechanisms = reference_mechanisms(circuit)
    row = 0

    def inject(op, frame_x, frame_z):
        # Mechanisms are enumerated in op order, so this op's come next.
        nonlocal row
        while row < len(mechanisms) and mechanisms[row][0] is op:
            _, _, x_qubits, z_qubits = mechanisms[row]
            for q in x_qubits:
                frame_x[row, q] ^= 1
            for q in z_qubits:
                frame_z[row, q] ^= 1
            row += 1

    detectors, observables = _propagate_frames(circuit, len(mechanisms), inject)
    return mechanisms, detectors, observables


def merge_mechanisms(mechanisms):
    """Mechanisms with identical symptoms merged one object at a time.

    The XOR convolution ``prior (1 - p) + p (1 - prior)`` is folded in
    list order per ``(detectors, observables)`` key; merged mechanisms
    come sorted by key, and those with probability 0 are dropped.
    """
    combined = {}
    for mech in mechanisms:
        key = (mech.detectors, mech.observables)
        prior = combined.get(key, 0.0)
        combined[key] = prior * (1 - mech.probability) + mech.probability * (1 - prior)
    return [
        _dem.ErrorMechanism(p, dets, obs)
        for (dets, obs), p in sorted(combined.items())
        if p > 0
    ]


def _merged_dem(circuit, mechanisms):
    """The circuit's model of a mechanism list, symptomless ones dropped."""
    return _dem.DetectorErrorModel(
        merge_mechanisms(m for m in mechanisms if m.detectors or m.observables),
        circuit.num_detectors,
        circuit.num_observables,
    )


def linear_dem(circuit):
    """The circuit's DEM by linear propagation, one frame row per mechanism."""
    mechanisms, detectors, observables = fault_symptoms(circuit)
    return _merged_dem(circuit, [
        _dem.ErrorMechanism(
            prob,
            tuple(int(d) for d in np.flatnonzero(detectors[row])),
            tuple(int(o) for o in np.flatnonzero(observables[row])),
        )
        for row, (_, prob, _, _) in enumerate(mechanisms)
    ])


def networkx_path_tables(graph):
    """``(dist, obs)`` all-pairs tables by one networkx Dijkstra per source.

    The ``(N, N)`` layout of MWPM's tables (boundary at index
    ``num_detectors``): ``dist`` holds shortest-path lengths (``inf`` when
    unreachable) and ``obs`` the XOR of the observable masks along the
    path networkx picks, as Python ints.
    """
    n = graph.num_detectors
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n + 1))
    for edge in graph.edges:
        u, v = (*edge.detectors, n)[:2]
        mask = sum(1 << o for o in edge.observables)
        nxg.add_edge(u, v, weight=edge.weight, obs=mask)
    dist = np.full((n + 1, n + 1), math.inf)
    obs = np.zeros((n + 1, n + 1), dtype=object)
    for source in range(n + 1):
        lengths, paths = nx.single_source_dijkstra(nxg, source, weight="weight")
        for dest, path in paths.items():
            dist[source, dest] = lengths[dest]
            mask = 0
            for a, b in zip(path, path[1:]):
                mask ^= nxg[a][b]["obs"]
            obs[source, dest] = mask
    return dist, obs


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


def cluster_split(decoder, defects):
    """MWPM clusters of one sorted defect row, by a pairwise loop.

    Defects ``u < v`` are linked when ``d(u, v) < d(u, B) + d(v, B)``;
    clusters are the linked components, each in ascending defect order,
    listed by lowest member.
    """
    dist = decoder._dist
    label = list(range(len(defects)))
    for i, u in enumerate(defects):
        for j in range(i + 1, len(defects)):
            v = defects[j]
            if dist[u, v] < dist[u, BOUNDARY] + dist[v, BOUNDARY]:
                low, high = sorted((label[i], label[j]))
                label = [low if x == high else x for x in label]
    groups = {}
    for i, u in enumerate(defects):
        groups.setdefault(label[i], []).append(u)
    return [tuple(members) for members in groups.values()]


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
    k = len(defects)
    boundary_cost = decoder._dist[defects, BOUNDARY].tolist()
    pair_cost = decoder._dist[np.ix_(defects, defects)].tolist()
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


def two_defect_mask(decoder, defects):
    """MWPM's closed-form observable mask for at most two sorted defects.

    A single defect goes to the boundary; a pair ``u < v`` matches
    directly iff ``d(u, v) < d(u, B) + d(v, B)`` and otherwise sends both
    ends to the boundary.  ``None`` for more defects, or when the chosen
    matching has no finite path (the full decoders raise there).
    """
    dist, obs = decoder._dist, decoder._obs
    if len(defects) > 2:
        return None
    if len(defects) == 2:
        u, v = defects
        if dist[u, v] < dist[u, BOUNDARY] + dist[v, BOUNDARY]:
            return int(obs[u, v])
    if any(math.isinf(dist[u, BOUNDARY]) for u in defects):
        return None
    mask = 0
    for u in defects:
        mask ^= int(obs[u, BOUNDARY])
    return mask


class WholeSyndromeMWPM(MWPMDecoder):
    """MWPM that matches every syndrome whole, without clusters.

    Subset DP up to ``dp_limit`` defects, blossom beyond; ``dp_limit=0``
    is blossom everywhere.  Unique rows decode one by one: rows of at most
    two defects from :func:`two_defect_mask`, which equals any exact
    matcher up to weight ties, the rest through :meth:`decode`.
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
        mask = 0
        for u, v in pairs:
            mask ^= int(self._obs[u, v])
        return _unmask_rows([mask], self.num_observables)[0]

    def _decode_defects(self, row_of, node, rows):
        syndromes = dense_rows(row_of, node, rows, self.graph.num_detectors)
        out = np.zeros((rows, self.num_observables), dtype=np.uint8)
        for i, row in enumerate(syndromes):
            mask = two_defect_mask(self, np.flatnonzero(row).tolist())
            if mask is None:
                out[i] = self.decode(row)
            else:
                out[i] = _unmask_rows([mask], self.num_observables)[0]
        return out


@dataclass
class _Cluster:
    """A growing cluster's defect count and boundary contact."""

    defects: int
    touches_boundary: bool

    @property
    def is_valid(self):
        return self.touches_boundary or self.defects % 2 == 0


def _find(parents, node):
    root = node
    while parents[root] != root:
        root = parents[root]
    while parents[node] != root:
        parents[node], node = root, parents[node]
    return root


class ReferenceUnionFind(BatchDecoder):
    """Sequential Delfosse-Nickerson union-find, one row at a time.

    Every round the invalid clusters take turns: a cluster adds half an
    edge weight of support to each un-grown edge at its nodes, and an
    edge whose support reaches its weight grows and merges its endpoints'
    clusters at once, mid-round.  The grown edges are then peeled along a
    DFS spanning forest rooted at the boundary.

    :meth:`trace` also reports whether a row's answer depends on that
    processing order, which round-synchronous growth (the production
    arena) does not share:

    * a merge of two distinct round-start clusters through an edge that
      entered the round one touch below its threshold: the first cluster
      to touch it absorbs the other, whose own touches that round are
      skipped if its turn had not come yet;
    * a grown cycle with a non-zero observable mask: the correction then
      depends on which spanning tree the peel takes.

    On every other row :class:`~repro.decoder.union_find.UnionFindDecoder`
    must equal this loop.
    """

    def __init__(self, graph):
        self.graph = graph
        table = graph.edge_table()
        self._boundary = table.node_count - 1
        self._indptr = table.indptr.tolist()
        self._inc_edge = table.inc_edge.tolist()
        # An edge's far end from node i is ea + eb - i.
        self._end_sum = (table.ea + table.eb).tolist()
        self._weight = table.weight.tolist()
        self._mask = table.mask.tolist()

    @property
    def num_observables(self):
        return self.graph.num_observables

    def decode(self, syndrome):
        return self.trace(syndrome)[0]

    def _decode_defects(self, row_of, node, rows):
        return per_shot_decode(
            self, dense_rows(row_of, node, rows, self.graph.num_detectors)
        )

    def order_sensitive(self, syndromes):
        """Bool per row: does its answer depend on processing order?"""
        return np.array([self.trace(row)[1] for row in syndromes], dtype=bool)

    def trace(self, syndrome):
        """``(prediction, order_sensitive)`` of one syndrome row."""
        defects = {int(d) for d in np.flatnonzero(syndrome)}
        if not defects:
            return np.zeros(self.num_observables, dtype=np.uint8), False
        grown, masks, risky_merge = self._grow(defects)
        mask, cycle = self._peel(grown, masks, defects)
        return _unmask_rows([mask], self.num_observables)[0], risky_merge or cycle

    def _grow(self, defects):
        """Grow clusters until valid.

        Returns the grown edges, keyed by their endpoint labels
        (``BOUNDARY`` for the boundary), each one's observable mask, and
        whether a risky merge (see the class docstring) happened.
        """
        parents, clusters = {}, {}
        support, grown, masks = {}, set(), {}
        risky_merge = False

        def ensure(node):
            if node not in parents:
                parents[node] = node
                clusters[node] = _Cluster(int(node in defects), node == BOUNDARY)

        for d in defects:
            ensure(d)
        for rounds in range(_MAX_ROUNDS + 1):
            roots = {_find(parents, d) for d in defects}
            bad = [r for r in roots if not clusters[r].is_valid]
            if not bad:
                return grown, masks, risky_merge
            if rounds == _MAX_ROUNDS:
                state = {r: (clusters[r].defects, clusters[r].touches_boundary) for r in bad}
                raise RuntimeError(
                    f"union-find growth failed to converge after {_MAX_ROUNDS} "
                    f"rounds; invalid clusters (root -> (defects, "
                    f"touches_boundary)): {state}; {len(grown)} edges grown"
                )
            # Round-start forest, and the edges first touched this round:
            # the rest entered it one touch below threshold.
            start_parents = dict(parents)
            fresh = set()
            for root in bad:
                for node in [u for u in parents if _find(parents, u) == root]:
                    i = self._boundary if node == BOUNDARY else node
                    for e in self._inc_edge[self._indptr[i]:self._indptr[i + 1]]:
                        j = self._end_sum[e] - i
                        neighbor = BOUNDARY if j == self._boundary else j
                        key = frozenset((node, neighbor))
                        if key in grown:
                            continue
                        weight = self._weight[e]
                        if weight <= _ZERO_WEIGHT:
                            # Effectively free: grown at its first touch.
                            support[key] = weight
                        else:
                            if key not in support:
                                fresh.add(key)
                            support[key] = support.get(key, 0.0) + weight / 2
                        if support[key] < weight:
                            continue
                        grown.add(key)
                        masks[key] = self._mask[e]
                        if (
                            key not in fresh
                            and node in start_parents
                            and neighbor in start_parents
                            and _find(start_parents, node) != _find(start_parents, neighbor)
                        ):
                            risky_merge = True
                        ensure(neighbor)
                        self._union(parents, clusters, node, neighbor)

    @staticmethod
    def _union(parents, clusters, a, b):
        ra, rb = _find(parents, a), _find(parents, b)
        if ra == rb:
            return
        parents[rb] = ra
        clusters[ra] = _Cluster(
            clusters[ra].defects + clusters[rb].defects,
            clusters[ra].touches_boundary or clusters[rb].touches_boundary,
        )

    @staticmethod
    def _peel(grown, masks, defects):
        """``(observable mask, non-zero cycle)`` of the peeled forests."""
        pairs = [(*key, masks[key]) for key in grown if len(key) == 2]
        adjacency = {}
        for u, v, mask in pairs:
            adjacency.setdefault(u, []).append((v, mask))
            adjacency.setdefault(v, []).append((u, mask))
        # Roots at the boundary first, so dangling defects peel onto it.
        visited, phi = set(), {}
        total_mask = 0
        for start in sorted(adjacency, key=lambda n: 0 if n == BOUNDARY else 1):
            if start in visited:
                continue
            order = []
            stack = [(start, None, 0)]
            while stack:
                node, parent, mask = stack.pop()
                if node in visited:
                    continue
                visited.add(node)
                phi[node] = 0 if parent is None else phi[parent] ^ mask
                order.append((node, parent, mask))
                for neighbor, edge_mask in adjacency[node]:
                    if neighbor not in visited:
                        stack.append((neighbor, node, edge_mask))
            # Peel leaves upward: flip an edge when its child carries a defect.
            carry = {node: int(node in defects) for node, _, _ in order}
            for node, parent, mask in reversed(order):
                if parent is not None and carry[node] % 2 == 1:
                    total_mask ^= mask
                    carry[parent] += 1
                    carry[node] = 0
        # phi is each node's tree-path mask from its root, so a grown edge
        # off the tree closes a cycle of mask phi[u] ^ phi[v] ^ mask.
        cycle = any(phi[u] ^ phi[v] != mask for u, v, mask in pairs)
        return total_mask, cycle


def periodic_program(circuit):
    """The circuit's periodic packed program; raises without a round."""
    faults = _dem.circuit_faults(circuit)
    if faults.period is None:
        raise ValueError("periodic program needs a repeated round; none found")
    return PeriodicProgram(circuit, faults)


def pin_program(sim, program):
    """Make ``sim`` (a :class:`FrameSimulator`) sample with ``program``."""
    sim._compiled = program
    return sim




def periodic_dem(circuit):
    """The circuit's DEM by periodic unrolling; raises when uncertified."""
    faults, reason = _dem._periodic_faults(circuit, detect_period(circuit))
    if faults is None:
        raise ValueError(f"periodic DEM extraction not certified: {reason}")
    det, obs = faults.det_index.tolist(), faults.obs_index.tolist()
    d, o = faults.det_start.tolist(), faults.obs_start.tolist()
    return _merged_dem(circuit, [
        _dem.ErrorMechanism(prob, tuple(det[d[f]:d[f + 1]]), tuple(obs[o[f]:o[f + 1]]))
        for f, prob in enumerate(faults.probabilities.tolist())
    ])
