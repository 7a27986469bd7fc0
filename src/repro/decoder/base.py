"""Shared decoder interface and batched decoding with syndrome dedup.

All decoders in :mod:`repro.decoder` are pure functions of a single
syndrome row, so batches can be decoded once per *unique* syndrome and the
predictions scattered back to every duplicate shot.  In the low-``p``
regimes the paper's Monte-Carlo runs live in (Fig. 6(a)), the all-zero
syndrome alone covers the overwhelming majority of shots, so deduplication
turns an O(shots) decode loop into an O(unique) one.

:class:`BatchDecoder` hoists the previously-triplicated per-shot loops of
the MWPM, union-find, and sequential decoders into one place.  Batches
arrive in one of two layouts:

* :meth:`~BatchDecoder.decode_batch` -- uint8 one-byte-per-bit rows; the
  rows are bit-packed internally to build fixed-width dedup keys.
* :meth:`~BatchDecoder.decode_packed` -- rows *already* bit-packed per
  shot, exactly what :meth:`repro.sim.frame.FrameSimulator.sample_packed`
  emits.  The packed rows are the dedup keys directly, so the packed
  pipeline never materializes (or re-packs) a byte-per-bit syndrome table;
  only the unique rows are unpacked for decoding.

Subclasses implement one hook, :meth:`~BatchDecoder._decode_unique`,
which decodes the unique syndrome set as a batch (the MWPM decoder solves
the union of its rows' clusters once this way), and expose
``num_observables``.  The one-shot ``decode`` is that hook on a batch of
one row, so every entry point runs the same decode.  The MWPM and
union-find decoders memoize small defect groups in one
:class:`SortedMemo` each.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

import numpy as np

from repro.decoder.graph import INT64_OBSERVABLES
from repro.obs import metrics as _metrics

# One observation per *batch* (not per shot), so the recording cost is
# amortized over shard_shots decodes; `repro_decode_seconds` percentiles
# are the measured latency input for ROADMAP item 2's ReactionTiming.
# The shots/unique pair is the dedup ratio; batch-unique counts are
# deterministic per (seed, shard_shots) and so extend the worker-count
# invariance contract to telemetry.
_DECODE_SECONDS = _metrics.histogram(
    "repro_decode_seconds",
    "Batch decode latency (dedup + unique-row decode) by decoder class.",
    ("decoder",),
)
_DECODE_SHOTS = _metrics.counter(
    "repro_decode_shots_total",
    "Shots decoded (before deduplication) by decoder class.",
    ("decoder",),
)
_DECODE_UNIQUE = _metrics.counter(
    "repro_decode_unique_total",
    "Unique syndrome rows decoded by decoder class.",
    ("decoder",),
)
_DECODE_BATCH_UNIQUE = _metrics.histogram(
    "repro_decode_batch_unique",
    "Unique syndrome rows per decode batch by decoder class.",
    ("decoder",),
    bounds=_metrics.COUNT_BUCKETS,
)


@runtime_checkable
class Decoder(Protocol):
    """Structural interface every registered decoder satisfies.

    A decoder maps one uint8 syndrome row over the circuit's detectors to a
    uint8 prediction row over its logical observables, and decodes batches
    of shots with :meth:`decode_batch` (byte-per-bit rows) or
    :meth:`decode_packed` (bit-packed per-shot rows).
    """

    @property
    def num_observables(self) -> int: ...

    def decode(self, syndrome: np.ndarray) -> np.ndarray: ...

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray: ...

    def decode_packed(
        self, packed: np.ndarray, num_detectors: int
    ) -> np.ndarray: ...


class BatchDecoder:
    """Base class providing batched decoding via syndrome deduplication.

    Subclasses implement one hook, :meth:`_decode_unique` (decode a batch
    of deduplicated syndrome rows), and expose ``num_observables`` (as an
    attribute or property); batching, dedup, scatter-back and the
    one-shot :meth:`decode` live here.
    """

    num_observables: int

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Predict observable flips for one shot: a batch of one row."""
        return self._decode_unique(np.asarray(syndrome, dtype=np.uint8)[None, :])[0]

    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode deduplicated ``(rows, num_detectors)`` uint8 syndromes."""
        raise NotImplementedError

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode many shots; returns (shots, num_observables) flips.

        Each unique syndrome row is decoded once and its prediction
        scattered back to every duplicate shot.

        Args:
            syndromes: uint8 array of shape (shots, num_detectors).
        """
        syndromes = np.asarray(syndromes, dtype=np.uint8)
        if syndromes.shape[1] == 0:
            packed = np.zeros((syndromes.shape[0], 0), dtype=np.uint8)
        else:
            packed = np.packbits(syndromes, axis=1)
        return self.decode_packed(packed, syndromes.shape[1])

    def decode_packed(
        self, packed: np.ndarray, num_detectors: int
    ) -> np.ndarray:
        """Decode bit-packed per-shot syndromes; returns byte-per-bit flips.

        Args:
            packed: uint8 array of shape (shots, ceil(num_detectors/8));
                each row is one shot's detector bits packed with
                ``np.packbits`` (big bit order) -- the layout
                :meth:`repro.sim.frame.FrameSimulator.sample_packed`
                returns.  The rows double as the dedup keys, so no
                pack/unpack round trip happens on the batch; only unique
                rows are unpacked for the decoder.
            num_detectors: number of valid bits per row.

        Returns:
            uint8 array of shape (shots, num_observables).
        """
        packed = np.ascontiguousarray(packed, dtype=np.uint8)
        shots = packed.shape[0]
        num_obs = self.num_observables
        if shots == 0:
            return np.zeros((0, num_obs), dtype=np.uint8)
        start = time.perf_counter() if _metrics.enabled() else 0.0
        first_index, inverse = _unique_packed_rows(packed)
        unique_out = self._decode_unique(
            _unpack_rows(packed[first_index], num_detectors)
        )
        out = unique_out[inverse]
        if _metrics.enabled():
            label = type(self).__name__
            _DECODE_SECONDS.labels(decoder=label).observe(
                time.perf_counter() - start
            )
            _DECODE_SHOTS.labels(decoder=label).inc(shots)
            _DECODE_UNIQUE.labels(decoder=label).inc(len(first_index))
            _DECODE_BATCH_UNIQUE.labels(decoder=label).observe(len(first_index))
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


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for every (s, c) pair, vectorized.

    ``counts`` must be strictly positive (filter zeros before calling).
    """
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if starts.size > 1:
        idx = np.cumsum(counts)[:-1]
        out[idx] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    np.cumsum(out, out=out)
    return out


def _unpack_rows(packed: np.ndarray, num_detectors: int) -> np.ndarray:
    """Bit-packed rows back to byte-per-bit rows (trailing pad dropped)."""
    if num_detectors == 0:
        return np.zeros((packed.shape[0], 0), dtype=np.uint8)
    return np.unpackbits(packed, axis=1, count=num_detectors)


def _unique_packed_rows(packed: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """(first_index, inverse) of the unique rows of a bit-packed matrix.

    Rows are compared as fixed-width byte strings, which is substantially
    faster than ``np.unique(..., axis=0)`` sorting full-width rows -- this
    sits on the Monte-Carlo hot path.
    """
    if packed.shape[1] == 0:
        # Zero-width rows (a circuit with no detectors) are all identical.
        return (
            np.zeros(1, dtype=np.intp),
            np.zeros(packed.shape[0], dtype=np.intp),
        )
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first_index, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first_index, np.asarray(inverse).reshape(-1)
