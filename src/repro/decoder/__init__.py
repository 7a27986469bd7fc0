"""Decoders, the batched Monte-Carlo decoding engine, and error analysis.

Decoder stack
-------------

Every decoder satisfies the :class:`~repro.decoder.base.Decoder` protocol
(``decode`` one syndrome row, ``decode_defects`` many rows as sorted
defect lists, ``decode_batch`` many byte-per-bit rows, ``decode_packed``
many bit-packed rows, ``num_observables``) and inherits
:class:`~repro.decoder.base.BatchDecoder`, which reduces every input
form to defect lists once (the samplers hand theirs straight to
``decode_defects``).  A decoder implements one hook,
``_decode_defects`` (decode a batch of defect lists at once); ``decode``
is that hook on a single row.  MWPM and union-find share one
defect-group pipeline: :func:`~repro.decoder.base.split_groups` splits
the lists by each decoder's pair predicate, and
:meth:`~repro.decoder.base.SortedMemo.solve` solves each distinct group
once.  Implementations:

* :class:`MWPMDecoder` -- minimum-weight perfect matching ("mwpm"), with
  exact defect-cluster decomposition, a cross-shot memo of small
  clusters (sorted int64 keys, shared with union-find), and an
  assignment-relaxation + branch-and-bound matcher per cluster.
* :class:`UnionFindDecoder` -- cluster growth + peeling ("union_find").
* :class:`SequentialCNOTDecoder` -- correlated two-pass MWPM for
  transversal-CNOT circuits ("sequential"; needs ``detector_meta``).

Each reads its :class:`DecodingGraph` through one :class:`EdgeTable`
(:meth:`DecodingGraph.edge_table`): MWPM runs one scipy Dijkstra pass over
it and union-find grows clusters over its CSR incidence.

Decoder registry
----------------

The quoted names above are keys in the engine's registry: build a decoder
from a detector error model with
``make_decoder("mwpm", dem)`` (or ``"sequential"`` plus
``detector_meta=...``), list names with :func:`available_decoders`, and
add your own with :func:`register_decoder`.  Experiment entry points
(:func:`run_decoding_experiment`, :func:`memory_logical_error`, ...) take
the registry name directly via their ``decoder=`` argument.

Monte-Carlo engine
------------------

:class:`DecodingEngine` drives throughput-oriented Monte-Carlo runs::

    engine = DecodingEngine(circuit, "mwpm", shard_shots=1024, workers=4)
    result = engine.run(100_000, seed=7)          # fixed shot count
    result = engine.run_until(100, 10**7, seed=7) # stream to 100 failures

Shots are split into fixed-size shards, each drawn from an independent
``SeedSequence.spawn`` child stream and mapped over the engine's one
:class:`~repro.obs.metrics.WorkerPool` (inline at ``workers=1``); every
run mode and ``collect`` consume the same shard loop in spawn order.
Every shard runs one body: draw shots as defect lists from the engine's
shot source (the compiled circuit sampler, or an importance sampler's
weighted proposal), decode them with ``decode_defects``, and ship the
failure (and weight) sums home.  The
shard layout depends only on the seed and ``shard_shots``, so results are
bit-identical for any worker count, including under ``run_until`` early
stopping (the stop rule is evaluated on the shard-ordered prefix).
``engine.collect(shots, seed=7)`` draws the same shards without decoding
them and returns one :class:`~repro.sim.compiled.DefectBatch`;
:func:`~repro.decoder.analysis.paired_failure_counts` decodes that batch
with several decoders, so their failure counts differ only by decoder.
"""

from repro.decoder.analysis import (
    AlphaFit,
    MemoryFit,
    cnot_experiment_rate,
    eq4_prediction,
    fit_alpha,
    fit_memory_model,
    memory_logical_error,
    per_round_rate,
    run_decoding_experiment,
)
from repro.decoder.base import BatchDecoder, Decoder
from repro.decoder.engine import (
    DecodingEngine,
    EngineResult,
    available_decoders,
    make_decoder,
    register_decoder,
)
from repro.decoder.graph import BOUNDARY, DecodingGraph, Edge, EdgeTable
from repro.decoder.mwpm import MWPMDecoder
from repro.decoder.sequential import SequentialCNOTDecoder
from repro.decoder.union_find import UnionFindDecoder

__all__ = [
    "AlphaFit",
    "BOUNDARY",
    "BatchDecoder",
    "Decoder",
    "DecodingEngine",
    "DecodingGraph",
    "Edge",
    "EdgeTable",
    "EngineResult",
    "MWPMDecoder",
    "MemoryFit",
    "SequentialCNOTDecoder",
    "UnionFindDecoder",
    "available_decoders",
    "cnot_experiment_rate",
    "eq4_prediction",
    "fit_alpha",
    "fit_memory_model",
    "make_decoder",
    "memory_logical_error",
    "per_round_rate",
    "register_decoder",
    "run_decoding_experiment",
]
