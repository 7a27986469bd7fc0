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

Subclasses implement ``decode`` (one shot) and expose
``num_observables``; they may override :meth:`~BatchDecoder._decode_unique`
to decode the unique syndrome set as a batch (the MWPM decoder solves
the union of its rows' clusters once this way) and
:meth:`~BatchDecoder._sparse_tables`
to serve <= 2-defect rows in closed form.  The per-shot reference is
``decode`` applied row by row.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional, Protocol, runtime_checkable

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


class SparseTables(NamedTuple):
    """Closed-form correction tables for syndromes with <= 2 defects.

    Built once per decoder from its shortest-path (MWPM) or cluster-growth
    (union-find) structure; rows whose ``*_ok`` entry is False fall
    through to the decoder's full batch path (and raise its usual
    infeasibility error there).
    """

    singles: np.ndarray  # (num_detectors, num_observables) uint8 rows
    singles_ok: np.ndarray  # (num_detectors,) bool
    pair_mask: Optional[np.ndarray] = None  # (N, N) int64 observable masks
    pair_ok: Optional[np.ndarray] = None  # (N, N) bool


class BatchDecoder:
    """Base class providing batched decoding via syndrome deduplication.

    Subclasses implement :meth:`decode` (one shot) and expose
    ``num_observables`` (as an attribute or property); batching, dedup,
    and scatter-back live here.  Two optional hooks speed up the unique
    rows:

    * :meth:`_decode_unique` -- decode the unique rows as one batch
      (default: :meth:`decode` per row).
    * :meth:`_sparse_tables` -- closed-form correction tables for
      syndromes with <= 2 defects (:class:`SparseTables`); rows they
      cover bypass :meth:`_decode_unique` entirely.  Their outputs are
      certified bit-identical to the full path, so enabling them never
      changes a decoded row.
    """

    num_observables: int

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode deduplicated syndrome rows; hook for batch-aware subclasses."""
        out = np.zeros((syndromes.shape[0], self.num_observables), dtype=np.uint8)
        for i in range(syndromes.shape[0]):
            out[i] = self.decode(syndromes[i])
        return out

    def _sparse_tables(self) -> Optional[SparseTables]:
        """Closed-form <= 2-defect tables, or None (no fast path)."""
        return None

    def _decode_unique_rows(self, syndromes: np.ndarray) -> np.ndarray:
        """Sparse-defect fast path in front of :meth:`_decode_unique`.

        Syndromes with <= 2 defects -- the overwhelming majority of
        unique rows at sub-threshold noise -- are read from the
        precomputed tables; only the dense residue reaches the full
        decoder.
        """
        tables = self._sparse_tables()
        if tables is None:
            return np.asarray(self._decode_unique(syndromes), dtype=np.uint8)
        num_obs = self.num_observables
        out = np.zeros((syndromes.shape[0], num_obs), dtype=np.uint8)
        counts = syndromes.sum(axis=1, dtype=np.int64)
        handled = counts == 0
        ones = np.flatnonzero(counts == 1)
        if ones.size:
            det = np.argmax(syndromes[ones], axis=1)
            ok = tables.singles_ok[det]
            out[ones[ok]] = tables.singles[det[ok]]
            handled[ones[ok]] = True
        if tables.pair_mask is not None:
            twos = np.flatnonzero(counts == 2)
            if twos.size:
                # np.nonzero walks rows in order with ascending columns,
                # so each reshaped row is one syndrome's sorted defect pair.
                pairs = np.nonzero(syndromes[twos])[1].reshape(twos.size, 2)
                u, v = pairs[:, 0], pairs[:, 1]
                ok = tables.pair_ok[u, v]
                out[twos[ok]] = _unmask_rows(
                    tables.pair_mask[u[ok], v[ok]], num_obs
                )
                handled[twos[ok]] = True
        dense = np.flatnonzero(~handled)
        if dense.size:
            out[dense] = np.asarray(
                self._decode_unique(syndromes[dense]), dtype=np.uint8
            )
        return out

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
        unique_out = self._decode_unique_rows(
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
