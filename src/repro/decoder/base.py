"""Shared decoder interface, batched decoding and the defect-group pipeline.

All decoders in :mod:`repro.decoder` are pure functions of a single
syndrome row.  :class:`BatchDecoder` gives them one batch entry for each
form batches arrive in:

* :meth:`~BatchDecoder.decode_defects` -- sorted ``(row, detector)``
  defect lists, exactly what the shot sources emit
  (:meth:`repro.sim.frame.FrameSimulator.sample_defects`); the decoding
  engine decodes every shard through it;
* :meth:`~BatchDecoder.decode_batch` -- uint8 one-byte-per-bit rows;
* :meth:`~BatchDecoder.decode_packed` -- rows bit-packed per shot, as
  :meth:`repro.sim.frame.FrameSimulator.sample_packed` emits them.

Each reduces its input to defect lists once (:func:`defect_lists`) and
calls the one hook subclasses implement,
:meth:`~BatchDecoder._decode_defects`, which decodes every row of a
batch at once; subclasses also expose ``num_observables``.  The one-shot
``decode`` is that hook on a batch of one row, so every entry point runs
the same decode.  A decoder that needs dense rows builds them inside
its hook with :func:`dense_rows`.

Rows are not deduplicated: in the paper's low-``p`` regimes (Fig. 6(a))
whole syndromes rarely recur, but they combine a small recurring set of
local defect groups.  The MWPM and union-find decoders share one
pipeline for that.  :func:`split_groups` splits every row's defects into
the components of the decoder's pair predicate, and
:meth:`SortedMemo.solve` looks up or solves each distinct group once.
A row's prediction is the XOR of its groups' values.
"""

from __future__ import annotations

import time
from typing import Callable, Protocol, Tuple, runtime_checkable

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.decoder.graph import INT64_OBSERVABLES
from repro.obs import metrics as _metrics

# One observation per *batch* (not per shot), so the recording cost is
# amortized over shard_shots decodes; `repro_decode_seconds` percentiles
# are the measured latency input that ReactionModel.decode_time
# (repro.parallel.reaction) is to consume (ROADMAP item 12).
_DECODE_SECONDS = _metrics.histogram(
    "repro_decode_seconds",
    "Batch decode latency by decoder class.",
    ("decoder",),
)
_DECODE_SHOTS = _metrics.counter(
    "repro_decode_shots_total",
    "Shots decoded by decoder class.",
    ("decoder",),
)

# Defect pairs tested per chunk of split_groups, bounding its live
# pair arrays on dense rows.
_SPLIT_PAIRS = 1 << 22


@runtime_checkable
class Decoder(Protocol):
    """Structural interface every registered decoder satisfies.

    A decoder maps one uint8 syndrome row over the circuit's detectors to a
    uint8 prediction row over its logical observables, and decodes batches
    of shots with :meth:`decode_defects` (defect lists),
    :meth:`decode_batch` (byte-per-bit rows) or :meth:`decode_packed`
    (bit-packed per-shot rows).
    """

    @property
    def num_observables(self) -> int: ...

    def decode(self, syndrome: np.ndarray) -> np.ndarray: ...

    def decode_defects(
        self, row_of: np.ndarray, node: np.ndarray, rows: int
    ) -> np.ndarray: ...

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray: ...

    def decode_packed(
        self, packed: np.ndarray, num_detectors: int
    ) -> np.ndarray: ...


class BatchDecoder:
    """Base class providing the batch entry points.

    Subclasses implement one hook, :meth:`_decode_defects` (decode a
    batch given as defect lists), and expose ``num_observables`` (as an
    attribute or property); the input forms, decode telemetry and the
    one-shot :meth:`decode` live here.
    """

    num_observables: int

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Predict observable flips for one shot: a batch of one row."""
        return self._decode_defects(*defect_lists(np.asarray(syndrome)[None, :]))[0]

    def _decode_defects(
        self, row_of: np.ndarray, node: np.ndarray, rows: int
    ) -> np.ndarray:
        """Decode ``rows`` shots whose defects are detectors ``node[i]`` of
        rows ``row_of[i]``, sorted by row, then node (each pair once);
        returns ``(rows, num_observables)`` uint8 flips."""
        raise NotImplementedError

    def decode_defects(
        self, row_of: np.ndarray, node: np.ndarray, rows: int
    ) -> np.ndarray:
        """Decode ``rows`` shots given as sorted defect lists; returns
        ``(rows, num_observables)`` flips.

        Args:
            row_of, node: int64 arrays, one entry per defect: row
                ``row_of[i]`` has detector ``node[i]`` flipped.  Sorted by
                row, then node, each pair once -- the lists
                :meth:`repro.sim.frame.FrameSimulator.sample_defects`
                draws (``batch.shot``, ``batch.detector``).
            rows: number of rows (shots); rows without entries have no
                defects.
        """
        if rows == 0:
            return np.zeros((0, self.num_observables), dtype=np.uint8)
        start = time.perf_counter() if _metrics.enabled() else 0.0
        out = self._decode_defects(row_of, node, rows)
        if _metrics.enabled():
            label = type(self).__name__
            _DECODE_SECONDS.labels(decoder=label).observe(
                time.perf_counter() - start
            )
            _DECODE_SHOTS.labels(decoder=label).inc(rows)
        return out

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode many shots; returns (shots, num_observables) flips.

        Args:
            syndromes: array of shape (shots, num_detectors); any non-zero
                entry is a flipped detector.
        """
        return self.decode_defects(*defect_lists(syndromes))

    def decode_packed(
        self, packed: np.ndarray, num_detectors: int
    ) -> np.ndarray:
        """Decode bit-packed per-shot syndromes; returns byte-per-bit flips.

        Args:
            packed: uint8 array of shape (shots, ceil(num_detectors/8));
                each row is one shot's detector bits packed with
                ``np.packbits`` (big bit order) -- the layout
                :meth:`repro.sim.frame.FrameSimulator.sample_packed`
                returns.
            num_detectors: number of valid bits per row.

        Returns:
            uint8 array of shape (shots, num_observables).
        """
        packed = np.asarray(packed, dtype=np.uint8)
        bits = np.unpackbits(packed, axis=1, count=num_detectors)
        # The unpacked bits are 0/1, so a bool view is their defect mask.
        return self.decode_defects(*defect_lists(bits.view(bool)))


def defect_lists(syndromes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(row_of, node, rows)``: the defect lists of a ``(rows, n)`` batch
    of syndrome rows, any non-zero entry a defect, sorted by row, then
    node."""
    syndromes = np.asarray(syndromes)
    if syndromes.dtype != bool:
        syndromes = syndromes != 0
    rows, n = syndromes.shape
    row_of, node = np.divmod(np.flatnonzero(syndromes), max(n, 1))
    return row_of, node, rows


def dense_rows(
    row_of: np.ndarray, node: np.ndarray, rows: int, width: int
) -> np.ndarray:
    """The ``(rows, width)`` uint8 syndrome rows of defect lists (the
    inverse of :func:`defect_lists`)."""
    out = np.zeros((rows, width), dtype=np.uint8)
    out[row_of, node] = 1
    return out


def _unmask_rows(masks, num_observables: int) -> np.ndarray:
    """Expand observable bitmasks to byte-per-bit prediction rows.

    ``masks`` holds ints of any width: up to
    :data:`~repro.decoder.graph.INT64_OBSERVABLES` observables one
    broadcasted int64 shift covers the whole batch; wider masks go
    through their little-endian bytes.
    """
    if num_observables <= INT64_OBSERVABLES:
        masks = np.asarray(masks, dtype=np.int64).reshape(-1)
        shifts = np.arange(num_observables, dtype=np.int64)
        return ((masks[:, None] >> shifts) & 1).astype(np.uint8)
    width = (num_observables + 7) // 8
    masks = np.asarray(masks, dtype=object).reshape(-1)
    raw = b"".join(int(mask).to_bytes(width, "little") for mask in masks)
    return np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(masks.size, width),
        axis=1, count=num_observables, bitorder="little",
    )


def split_groups(
    row_of: np.ndarray,
    node: np.ndarray,
    near: Callable[[np.ndarray, np.ndarray], np.ndarray],
    reach: int,
) -> Tuple[np.ndarray, ...]:
    """Every row's defect groups, the components of ``near`` over its
    defects, as ``(ids, first, sizes, row)``: group ``i`` is
    ``ids[first[i]:first[i] + sizes[i]]`` (ascending) of row ``row[i]``,
    listed by row, then by lowest member.

    The defects come as sorted defect lists (see
    :meth:`BatchDecoder._decode_defects`).  ``near(u, v)`` tells, for
    detector id arrays with ``u < v`` elementwise, which pairs link; only
    same-row pairs at most ``reach`` ids apart are tested, in chunks of
    :data:`_SPLIT_PAIRS` pairs.
    """
    count = node.size
    # Defect i pairs with the later defects of its row at most `reach`
    # ids above it; the keys space rows further apart than that.
    key = row_of * (int(node.max(initial=0)) + reach + 2) + node
    later = np.searchsorted(key, key + reach, side="right") - np.arange(count) - 1
    owners = np.flatnonzero(later)
    spans = later[owners]
    chunk = np.cumsum(spans) // _SPLIT_PAIRS
    links_i, links_j = [], []
    for part in np.split(np.arange(owners.size), np.flatnonzero(np.diff(chunk)) + 1):
        pi = np.repeat(owners[part], spans[part])
        pj = _ragged_ranges(owners[part] + 1, spans[part], pi.size)
        linked = near(node[pi], node[pj])
        links_i.append(pi[linked])
        links_j.append(pj[linked])
    pi, pj = np.concatenate(links_i), np.concatenate(links_j)
    links = sparse.coo_matrix(
        (np.ones(pi.size, dtype=np.int8), (pi, pj)), shape=(count, count)
    )
    # Labels number components by their lowest defect, so a stable sort
    # lists groups by row, then lowest member, each ascending.
    label = csgraph.connected_components(links, directed=False)[1]
    order = np.argsort(label, kind="stable")
    first = np.flatnonzero(np.diff(label[order], prepend=-1))
    sizes = np.diff(first, append=count)
    return node[order], first, sizes, row_of[order[first]]


def _padded(ids: np.ndarray, first: np.ndarray, sizes: np.ndarray, fill: int) -> np.ndarray:
    """``(m, max(sizes))`` rows ``ids[first[i]:first[i] + sizes[i]]``, each
    padded with ``fill``."""
    width = int(sizes.max()) if sizes.size else 0
    pos = first[:, None] + np.arange(width)
    real = np.arange(width) < sizes[:, None]
    return np.where(real, ids[np.minimum(pos, ids.size - 1)], fill)


class SortedMemo:
    """Values of defect groups over ``num_detectors`` detectors, by int64
    key, in two sorted arrays (``dtype`` values: int64, or object for
    wide masks).

    Ascending ids ``g_0 < ... < g_{k-1}`` key as the base-``(n + 1)``
    polynomial over ``g_i + 1``: unique across sizes and exact in int64
    up to :attr:`max_defects` ids (``max_defects``, lowered where
    ``(n + 1)^k`` would overflow).
    """

    def __init__(self, num_detectors: int, max_defects: int, dtype) -> None:
        self.base = num_detectors + 1
        self.max_defects = max(
            k for k in range(max_defects + 1) if self.base ** k <= 1 << 63
        )
        self.keys = np.zeros(0, dtype=np.int64)
        self.vals = np.zeros(0, dtype=dtype)

    def keys_of(self, ids: np.ndarray, first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Keys of the groups ``ids[first[i]:first[i] + sizes[i]]``."""
        keys = np.zeros(first.size, dtype=np.int64)
        for k in range(self.max_defects):
            more = np.flatnonzero(sizes > k)
            keys[more] = keys[more] * self.base + ids[first[more] + k] + 1
        return keys

    def lookup(self, keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Which of the sorted unique ``keys`` are stored, and their values."""
        pos = np.searchsorted(self.keys, keys)
        hit = pos < self.keys.size
        hit[hit] = self.keys[pos[hit]] == keys[hit]
        return hit, self.vals[pos[hit]]

    def store(self, keys: np.ndarray, vals: np.ndarray, limit: int) -> None:
        """Merge sorted unstored ``keys`` and their ``vals``.  A memo that
        would hold more than ``limit`` entries is dropped first, and at
        most ``limit`` new entries are kept."""
        if self.keys.size + keys.size > limit:
            self.keys, self.vals = self.keys[:0], self.vals[:0]
            keys, vals = keys[:limit], vals[:limit]
        at = np.searchsorted(self.keys, keys)
        self.keys = np.insert(self.keys, at, keys)
        self.vals = np.insert(self.vals, at, vals)

    def solve(
        self,
        ids: np.ndarray,
        first: np.ndarray,
        sizes: np.ndarray,
        solve: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        limit: int,
    ) -> np.ndarray:
        """The value of every group ``ids[first[i]:first[i] + sizes[i]]``.

        Groups of at most :attr:`max_defects` ids are looked up; larger
        ones rarely recur, so they are deduplicated per call and never
        stored.  Every distinct miss is solved once, in one
        ``solve(ids, first, sizes)`` call, and the small ones are stored
        under ``limit`` (see :meth:`store`).
        """
        small = sizes <= self.max_defects
        # Sorted unique keys make the lookup one sequential search.
        keys, rep, key_of = np.unique(
            self.keys_of(ids, first[small], sizes[small]),
            return_index=True, return_inverse=True,
        )
        hit, found = self.lookup(keys)
        _, big_rep, big_of = np.unique(
            _padded(ids, first[~small], sizes[~small], -1),
            axis=0, return_index=True, return_inverse=True,
        )
        new = np.concatenate([np.flatnonzero(small)[rep[~hit]], np.flatnonzero(~small)[big_rep]])
        solved = solve(ids, first[new], sizes[new])
        missed = keys.size - np.count_nonzero(hit)
        self.store(keys[~hit], solved[:missed], limit)
        key_vals = np.empty(keys.size, dtype=solved.dtype)
        key_vals[hit], key_vals[~hit] = found, solved[:missed]
        vals = np.empty(first.size, dtype=solved.dtype)
        vals[small], vals[~small] = key_vals[key_of], solved[missed:][big_of.reshape(-1)]
        return vals


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for every (s, c) pair, vectorized.

    ``counts`` must be strictly positive (filter zeros before calling);
    no pairs give an empty array.
    """
    out = np.ones(total, dtype=np.int64)
    if total == 0:
        return out
    out[0] = starts[0]
    if starts.size > 1:
        idx = np.cumsum(counts)[:-1]
        out[idx] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    np.cumsum(out, out=out)
    return out
