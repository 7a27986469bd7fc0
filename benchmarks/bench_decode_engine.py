"""Bench: Monte-Carlo decoding engine throughput (packed pipeline + dedup).

Three benchmark families, all written into ``BENCH_frame.json``
(``BENCH_frame.quick.json`` for ``--quick`` runs):

* **Decode path** (:func:`test_engine_speedup_and_determinism`) -- the
  established d=5 anchor comparing per-shot blossom (the pre-engine
  implementation), dedup cluster-decomposed MWPM, and the sharded engine.
* **Packed frame pipeline** (:func:`packed_vs_unpacked`) -- end-to-end
  sample+decode throughput at d=7, p=1e-3 for three configurations, the
  first two composed from public pieces over the engine's shard layout
  (:func:`_unpacked_run`):

  - ``per_shot_baseline``: byte-per-bit sampling
    (``reference_sample``), per-row ``decode`` with the
    whole-syndrome blossom matcher (``WholeSyndromeMWPM(graph,
    dp_limit=0)``) -- the repo's historical baseline convention;
  - ``unpacked_engine``: byte-per-bit sampling + dedup ``decode_batch``
    with the whole-syndrome DP/blossom matcher (``WholeSyndromeMWPM``)
    -- the engine as it stood before the packed pipeline;
  - ``packed_engine``: the engine -- compiled bit-packed sampling,
    packed-key dedup, cluster-decomposed MWPM (assignment matcher).

  Acceptance anchors: the packed engine must deliver >= 5x the per-shot
  baseline's shots/sec, and the packed engine and the byte-per-bit
  composition must return bit-identical failure counts for the same seed
  and decoder (also asserted, on full detector tables, in
  ``tests/test_sim_compiled.py``).
* **Decode-phase overhaul** (:func:`decode_phase`,
  :func:`decode_phase_quick_gate`) -- the batched union-find decoder
  (group memo in front of the whole-row arena) against the sequential
  per-shot loop it replaced (``ReferenceUnionFind``): decode-phase-only
  throughput on pre-sampled packed tables (>= 3x at d=11, p=5e-4),
  end-to-end engine shots/s (>= 1.5x at the same point), a
  sample-vs-decode wall-clock split read from the engine phase counters,
  and a CI gate holding the batched path to the per-shot loop and never
  slower than it at d=5/d=7.  Predictions must agree per table on every
  row whose sequential answer does not depend on processing order (the
  oracle's ``order_sensitive``), and failure counts per seed at d=11.
* **Periodic round-compilation** (:func:`periodic_vs_linear`,
  :func:`periodic_d11_point`) -- the cold per-circuit pipeline (DEM
  extraction + program compilation + packed sampling) as
  ``extract_dem`` + ``compile_program`` run it (the periodic path on
  these circuits: one propagation over a few rounds, unrolled, shared
  by the DEM and the sampler's fault table) vs the byte-per-bit
  ``linear_dem`` oracle + a ``CompiledProgram`` whose fault table comes
  from a whole-circuit packed propagation, at d=7 p=1e-3 (>= 2x
  acceptance target) and a d=11 p=5e-4 low-p point.  Both paths must
  agree exactly: equal DEMs post-``merged()`` and bit-identical sampled
  planes per seed (property-tested across the full op/noise matrix in
  ``tests/test_sim_periodic.py``).
* **Rare-event importance sampling** (:func:`rare_overlap_check`,
  :func:`rare_event_gain`) -- the reweighted-DEM engine of
  :mod:`repro.estimator.rare` against brute force: agreement within 2
  combined sigma in the overlap region (d=5, p=3e-3) with a healthy
  effective sample size, and an effective-shots/s gain >= 100x at the
  d=7, p=5e-4 rare point (~1e-7 failure rate), landing >= 2 decades
  below the brute-force resolution floor.

The baselines are the test suite's oracles (``tests/oracles.py``),
imported, not copied: ``WholeSyndromeMWPM`` matches each syndrome whole
(subset DP up to 12 defects and blossom beyond; ``dp_limit=0`` is
blossom everywhere, i.e. ``MWPMDecoder._match_blossom`` plus the
path-observable table), ``ReferenceUnionFind`` runs union-find's
sequential per-shot loop, ``reference_sample`` samples byte-per-bit, and
``linear_dem`` is the byte-per-bit, row-per-mechanism DEM propagation
(next to ``CompiledProgram``, the linear packed program).

Methodology: every configuration is warmed up first (compiles the packed
program, fills the decoder's cluster cache the same number of warm shots
for each config) and then timed as the median of ``TIMING_REPEATS``
fixed-seed runs; results land in ``BENCH_frame.json`` so CI can track
the trajectory per PR.

Run directly:  PYTHONPATH=src python benchmarks/bench_decode_engine.py [--quick]
As pytest:     PYTHONPATH=src python -m pytest benchmarks/bench_decode_engine.py -q
"""

import argparse
import functools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))

from oracles import (  # noqa: E402  (tests/ on the path first)
    ReferenceUnionFind,
    WholeSyndromeMWPM,
    linear_dem,
    per_shot_decode,
    reference_sample,
)
from repro import obs  # noqa: E402
from repro.core.cache import clear_caches
from repro.decoder.analysis import paired_failure_counts
from repro.decoder.engine import DecodingEngine, make_decoder
from repro.decoder.graph import DecodingGraph
from repro.decoder.mwpm import MWPMDecoder
from repro.decoder.union_find import UnionFindDecoder
from repro.obs import metrics as _metrics
from repro.estimator.rare import rare_engine
from repro.noise.dem import extract_dem
from repro.noise.models import BiasedPauli
from repro.sim.compiled import CompiledProgram
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit
from repro.sim.periodic import PeriodicProgram, compile_program

OUTPUT = REPO_ROOT / "BENCH_frame.json"
# --quick runs write here so they never overwrite the committed full run.
QUICK_OUTPUT = REPO_ROOT / "BENCH_frame.quick.json"

PACKED_SPEEDUP_TARGET = 5.0
# Floor on the packed path vs the dedup engine it replaced: measured
# 4.4-5.5x across runs while both sides sent large defect sets to networkx
# blossom (a tail that varied per seed).  The packed path now solves every
# cluster with the assignment matcher and read 15.4x in one --quick run;
# only the whole-syndrome baseline keeps the blossom tail.  The floor keeps
# a machine-variance margin so slower CI runners do not flake.
ENGINE_SPEEDUP_FLOOR = 4.0


def _decode_throughput(decode, detectors):
    start = time.perf_counter()
    predictions = decode(detectors)
    elapsed = time.perf_counter() - start
    return predictions, detectors.shape[0] / elapsed


def _report(distance, p, shots):
    circuit = memory_circuit(distance, distance + 1, p)
    graph = DecodingGraph.from_dem(extract_dem(circuit))
    baseline = WholeSyndromeMWPM(graph, dp_limit=0)
    engine_decoder = MWPMDecoder(graph)
    detectors, observables = reference_sample(
        circuit, shots, np.random.default_rng(47)
    )
    unique = np.unique(detectors, axis=0).shape[0]

    base_pred, base_rate = _decode_throughput(
        functools.partial(per_shot_decode, baseline), detectors
    )
    fast_pred, fast_rate = _decode_throughput(engine_decoder.decode_batch, detectors)
    # Both matchers are exact MWPM; on degenerate ties they may pick
    # different-but-equal-weight corrections, so compare failure counts.
    base_failures = int((base_pred[:, 0] ^ observables[:, 0]).sum())
    fast_failures = int((fast_pred[:, 0] ^ observables[:, 0]).sum())
    assert abs(base_failures - fast_failures) <= max(5, shots // 500)

    start = time.perf_counter()
    engine = DecodingEngine(circuit, engine_decoder, shard_shots=1024, workers=4)
    engine.run(shots, seed=47)
    engine.close()
    sharded_rate = shots / (time.perf_counter() - start)

    print(
        f"  d={distance} p={p:g} shots={shots} unique={unique} | "
        f"per-shot(blossom) {base_rate:8.0f}/s  dedup(MWPM) {fast_rate:8.0f}/s "
        f"({fast_rate / base_rate:5.1f}x)  engine(4w, incl. sampling) "
        f"{sharded_rate:8.0f}/s"
    )
    return base_rate, fast_rate


# -- packed pipeline ------------------------------------------------------------


# Timing repeats per configuration; the median absorbs the +/-15%
# single-run wobble observed even on an idle machine (same methodology as
# bench_estimator.py).
TIMING_REPEATS = 3


def _timed_run(run, shots, warm_shots, seed):
    """Warm ``run(shots, seed=...)`` (compile + caches), then median-time it.

    Each repeat samples *fresh* noise (distinct seeds): repeating one seed
    would let the decoder's cluster cache replay the identical syndromes
    and report a rate no fresh workload ever sees.  The first repeat runs
    the canonical ``seed`` and provides the returned result.
    """
    run(warm_shots, seed=seed + 1)
    rates = []
    result = None
    for i in range(TIMING_REPEATS):
        start = time.perf_counter()
        res = run(shots, seed=seed + 100 * i)
        rates.append(shots / (time.perf_counter() - start))
        if i == 0:
            result = res
    return result, statistics.median(rates)


def _unpacked_run(circuit, decode, shard_shots, shots, seed):
    """``(shots, failures)`` over the engine's shard layout, byte-per-bit.

    Spawns one ``SeedSequence`` child per shard exactly as
    :meth:`DecodingEngine.run` does, samples each shard with
    ``reference_sample`` and decodes it with ``decode`` (a
    ``decode_batch`` or a per-row baseline), so for the same decoder the
    failure count equals the engine's bit for bit.
    """
    full, rest = divmod(shots, shard_shots)
    sizes = [shard_shots] * full + ([rest] if rest else [])
    failures = 0
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        detectors, observables = reference_sample(
            circuit, size, np.random.default_rng(child)
        )
        failures += int((decode(detectors)[:, 0] ^ observables[:, 0]).sum())
    return shots, failures


def packed_vs_unpacked(distance=7, p=1e-3, shots=6000, warm_shots=2048, seed=29):
    """End-to-end sample+decode throughput: packed vs unpacked configs.

    The engine and the unpacked composition both use large shards
    (4096): at d=7 most syndromes are unique, so throughput comes from
    batch effects -- the decoder's vectorized defect-count groups and the
    packed sampler's whole-row ops -- which amortize better over bigger
    shards.
    """
    circuit = memory_circuit(distance, distance + 1, p)
    graph = DecodingGraph.from_dem(extract_dem(circuit))

    packed = DecodingEngine(circuit, MWPMDecoder(graph), shard_shots=4096)
    res_packed, rate_packed = _timed_run(packed.run, shots, warm_shots, seed)

    whole = WholeSyndromeMWPM(graph)
    res_unpacked, rate_unpacked = _timed_run(
        functools.partial(_unpacked_run, circuit, whole.decode_batch, 4096),
        shots, warm_shots, seed,
    )
    # The two timed configurations run *different matchers* (decomposed vs
    # whole-syndrome -- both exact MWPM), so their failure counts are only
    # tie-equal; hold them to the usual degenerate-tie sliver.
    assert res_packed.shots == res_unpacked[0]
    assert abs(res_packed.failures - res_unpacked[1]) <= max(5, shots // 500)

    # Bit-identity of the packed engine vs the byte-per-bit composition is
    # asserted on a same-decoder pair, where equality is exact by
    # construction.
    shared = MWPMDecoder(graph)
    check_shots = min(shots, 2048)
    res_a = DecodingEngine(circuit, shared, shard_shots=4096).run(
        check_shots, seed=seed
    )
    res_b = _unpacked_run(circuit, shared.decode_batch, 4096, check_shots, seed)
    assert (res_a.shots, res_a.failures) == res_b, (
        "packed engine and byte-per-bit composition must agree bit-for-bit "
        "at a fixed seed"
    )

    # The per-shot baseline is far too slow to run at full scale; time a
    # slice and extrapolate the rate (it is O(shots) by construction; the
    # slice must stay large enough that the heavy-tailed blossom work per
    # draw does not dominate the between-repeat variance).
    base_shots = max(shots // 5, 256)
    blossom = WholeSyndromeMWPM(graph, dp_limit=0)
    per_shot = functools.partial(per_shot_decode, blossom)
    base_rates = []
    for i in range(TIMING_REPEATS):
        start = time.perf_counter()
        _unpacked_run(circuit, per_shot, 1024, base_shots, seed + 100 * i)
        base_rates.append(base_shots / (time.perf_counter() - start))
    rate_baseline = statistics.median(base_rates)

    row = {
        "distance": distance,
        "p": p,
        "shots": shots,
        "warm_shots": warm_shots,
        "per_shot_baseline_shots_per_s": rate_baseline,
        "unpacked_engine_shots_per_s": rate_unpacked,
        "packed_engine_shots_per_s": rate_packed,
        "speedup_vs_per_shot_baseline": rate_packed / rate_baseline,
        "speedup_vs_unpacked_engine": rate_packed / rate_unpacked,
        "failures": res_packed.failures,
        "bit_identical_to_unpacked": True,
    }
    print(
        f"  d={distance} p={p:g} shots={shots} | per-shot "
        f"{rate_baseline:7.0f}/s  unpacked engine {rate_unpacked:7.0f}/s  "
        f"packed engine {rate_packed:7.0f}/s "
        f"({row['speedup_vs_per_shot_baseline']:.1f}x vs per-shot, "
        f"{row['speedup_vs_unpacked_engine']:.1f}x vs unpacked engine)"
    )
    return row


# -- decode-phase overhaul ------------------------------------------------------


DECODE_PHASE_SPEEDUP_TARGET = 3.0
DECODE_E2E_SPEEDUP_TARGET = 1.5
# Quick/CI floor: the batched union-find arena must never decode slower
# than the sequential per-shot loop it replaced, even at small distances
# where batches are shallow and per-row constants are modest.
DECODE_QUICK_FLOOR = 1.0


def _counter_value(name: str) -> float:
    # counter() is get-or-create, so this reads the engine's live
    # phase-seconds counters without importing its private globals.
    return float(_metrics.counter(name).value)


def _decode_phase_tables(circuit, decoder, shots, warm_shots, seed):
    """Sample a warm-up table plus TIMING_REPEATS fresh-seeded tables.

    Fresh seeds per repeat for the same reason as :func:`_timed_run`:
    re-decoding one table would hand the second repeat a workload no fresh
    batch ever sees.  The canonical (first) table's observables come back
    unpacked for the failure-count comparison.
    """
    with DecodingEngine(circuit, decoder, shard_shots=4096) as engine:
        warm = engine.collect(warm_shots, seed=seed + 1)[0]
        tables = []
        observables = None
        for i in range(TIMING_REPEATS):
            det, obs_packed = engine.collect(shots, seed=seed + 100 * i)
            tables.append(det)
            if i == 0:
                observables = np.unpackbits(
                    obs_packed, axis=1, count=circuit.num_observables
                )
    return warm, tables, observables


def _timed_decode(decoder, tables, num_detectors):
    """Median decode-phase rate over the tables; returns all predictions."""
    rates = []
    predictions = []
    for det in tables:
        start = time.perf_counter()
        predictions.append(decoder.decode_packed(det, num_detectors))
        rates.append(det.shape[0] / (time.perf_counter() - start))
    return predictions, statistics.median(rates)


def _decode_phase_pair(distance, rounds, p, shots, warm_shots, seed):
    """Time per-shot vs batched union-find decode on identical tables.

    Both decoders are warmed (edge arrays, hop table, group memo)
    on a separate warm table, then timed.  Per-table predictions must
    agree on every row the per-shot oracle calls order-insensitive;
    returns the count of (order-sensitive) shots where they differ.
    """
    circuit = memory_circuit(distance, rounds, p)
    dem = FrameSimulator(circuit).detector_error_model()
    graph = DecodingGraph.from_dem(dem)
    per_shot = ReferenceUnionFind(graph)
    batched = UnionFindDecoder(graph)
    num_det = circuit.num_detectors
    warm, tables, observables = _decode_phase_tables(
        circuit, batched, shots, warm_shots, seed
    )
    per_shot.decode_packed(warm, num_det)
    batched.decode_packed(warm, num_det)
    base_preds, rate_base = _timed_decode(per_shot, tables, num_det)
    fast_preds, rate_fast = _timed_decode(batched, tables, num_det)
    differing = 0
    for det, full, arena in zip(tables, base_preds, fast_preds):
        differ = np.flatnonzero((full != arena).any(axis=1))
        rows = np.unpackbits(det[differ], axis=1, count=num_det)
        assert per_shot.order_sensitive(rows).all(), (
            f"batched union-find must equal the per-shot path at "
            f"d={distance} on every order-insensitive row"
        )
        differing += differ.size
    failures = int((fast_preds[0][:, 0] ^ observables[:, 0]).sum())
    return circuit, per_shot, batched, rate_base, rate_fast, failures, differing


def decode_phase(distance=11, p=5e-4, shots=4096, warm_shots=512, seed=67):
    """d=11 low-p acceptance point for the batched decode path.

    Phase one times the *decode phase alone* on pre-sampled packed
    tables (collected once with :meth:`DecodingEngine.collect`): the
    batched union-find decoder with its group memo vs the per-shot
    reference walk it replaced.  Phase two re-runs the full engine
    (sample + dedup + decode) with each decoder and splits the batched
    run's wall clock into sample vs decode seconds from the engine phase
    counters.  Predictions must agree per table on every order-insensitive
    row, and failure counts per seed.
    """
    rounds = distance + 1
    (circuit, per_shot, batched, rate_base, rate_fast, failures, differing) = (
        _decode_phase_pair(distance, rounds, p, shots, warm_shots, seed)
    )

    sample_before = _counter_value("repro_engine_sample_seconds_total")
    decode_before = _counter_value("repro_engine_decode_seconds_total")
    engine_new = DecodingEngine(circuit, batched, shard_shots=1024)
    res_new, rate_e2e_new = _timed_run(engine_new.run, shots, warm_shots, seed)
    engine_new.close()
    sample_seconds = (
        _counter_value("repro_engine_sample_seconds_total") - sample_before
    )
    decode_seconds = (
        _counter_value("repro_engine_decode_seconds_total") - decode_before
    )

    engine_old = DecodingEngine(circuit, per_shot, shard_shots=1024)
    res_old, rate_e2e_old = _timed_run(engine_old.run, shots, warm_shots, seed)
    engine_old.close()
    assert (res_new.shots, res_new.failures) == (res_old.shots, res_old.failures), (
        "batched and per-shot engines must agree bit-for-bit at a fixed seed"
    )

    row = {
        "distance": distance,
        "p": p,
        "rounds": rounds,
        "shots": shots,
        "per_shot_decode_shots_per_s": rate_base,
        "batched_decode_shots_per_s": rate_fast,
        "decode_speedup": rate_fast / rate_base,
        "per_shot_e2e_shots_per_s": rate_e2e_old,
        "batched_e2e_shots_per_s": rate_e2e_new,
        "e2e_speedup": rate_e2e_new / rate_e2e_old,
        "sample_seconds": sample_seconds,
        "decode_seconds": decode_seconds,
        "failures": failures,
        "order_sensitive_differences": differing,
    }
    print(
        f"  d={distance} p={p:g} shots={shots} | decode-only per-shot "
        f"{rate_base:7.0f}/s  batched {rate_fast:7.0f}/s "
        f"({row['decode_speedup']:.1f}x)  end-to-end {rate_e2e_old:7.0f}/s "
        f"-> {rate_e2e_new:7.0f}/s ({row['e2e_speedup']:.1f}x; "
        f"sample {sample_seconds:.2f}s / decode {decode_seconds:.2f}s)"
    )
    return row


def decode_phase_quick_gate(p=1e-3, shots=2048, warm_shots=256, seed=71):
    """CI gate: batched union-find equals per-shot on order-insensitive
    rows, and is never slower (d=5/d=7)."""
    rows = {}
    for distance in (5, 7):
        _, _, _, rate_base, rate_fast, failures, differing = _decode_phase_pair(
            distance, distance + 1, p, shots, warm_shots, seed
        )
        rows[f"d{distance}"] = {
            "distance": distance,
            "p": p,
            "shots": shots,
            "per_shot_decode_shots_per_s": rate_base,
            "batched_decode_shots_per_s": rate_fast,
            "decode_speedup": rate_fast / rate_base,
            "failures": failures,
            "order_sensitive_differences": differing,
        }
        print(
            f"  d={distance} p={p:g} shots={shots} | decode-only per-shot "
            f"{rate_base:7.0f}/s  batched {rate_fast:7.0f}/s "
            f"({rows[f'd{distance}']['decode_speedup']:.1f}x, "
            f"{differing} order-sensitive shots differ)"
        )
    return rows


def _assert_decode_phase(row: dict) -> None:
    assert row["decode_speedup"] >= DECODE_PHASE_SPEEDUP_TARGET, (
        f"batched union-find decode phase only {row['decode_speedup']:.2f}x "
        f"the per-shot path at d={row['distance']} "
        f"(target {DECODE_PHASE_SPEEDUP_TARGET}x)"
    )
    assert row["e2e_speedup"] >= DECODE_E2E_SPEEDUP_TARGET, (
        f"batched engine only {row['e2e_speedup']:.2f}x end-to-end over the "
        f"per-shot engine at d={row['distance']} "
        f"(target {DECODE_E2E_SPEEDUP_TARGET}x)"
    )


def _assert_decode_quick(rows: dict) -> None:
    for row in rows.values():
        assert row["decode_speedup"] >= DECODE_QUICK_FLOOR, (
            f"batched union-find decode at d={row['distance']} only "
            f"{row['decode_speedup']:.2f}x the per-shot path "
            f"(floor {DECODE_QUICK_FLOOR}x)"
        )


# -- biased-noise point ---------------------------------------------------------


def biased_noise_point(
    distance=7, p=3e-3, bias=8.0, shots=4000, warm_shots=1024, seed=31
):
    """d=7 biased-Pauli point: packed throughput + weighted-vs-uniform.

    Exercises the PAULI_CHANNEL_1/2 sampling path at scale through the
    packed engine, and pairs the DEM-LLR-weighted MWPM against the
    uniform-weight baseline graph on the *same* sampled syndromes -- the
    noise layer's acceptance comparison, tracked per PR next to the
    packed-pipeline numbers.
    """
    # X-basis memory: the Z-heavy channel lands in the detecting sector,
    # so failures are plentiful and the weighting comparison has teeth.
    circuit = memory_circuit(
        distance, distance + 1, p, basis="X", noise=BiasedPauli(p, bias=bias)
    )
    dem = FrameSimulator(circuit).detector_error_model()
    weighted = make_decoder("mwpm", dem)

    engine = DecodingEngine(circuit, weighted, shard_shots=4096)
    _, rate_packed = _timed_run(engine.run, shots, warm_shots, seed)
    engine.close()

    failures = paired_failure_counts(
        circuit,
        {"weighted": weighted, "uniform": "mwpm_uniform"},
        shots,
        seed=np.random.SeedSequence(seed),
        dem=dem,
        shard_shots=4096,
    )

    row = {
        "distance": distance,
        "p": p,
        "bias": bias,
        "basis": "X",
        "shots": shots,
        "packed_engine_shots_per_s": rate_packed,
        "failures_weighted": failures["weighted"],
        "failures_uniform": failures["uniform"],
    }
    print(
        f"  d={distance} p={p:g} bias={bias:g} shots={shots} | packed engine "
        f"{rate_packed:7.0f}/s  weighted {failures['weighted']} vs uniform "
        f"{failures['uniform']} failures (paired samples)"
    )
    return row


# -- periodic round-compilation -------------------------------------------------


PERIODIC_SPEEDUP_TARGET = 2.0
# Quick/CI floor: the periodic path must never be slower than linear; the
# margin absorbs single-run wobble on loaded runners.
PERIODIC_QUICK_FLOOR = 0.95


def _timed_cold_pipeline(circuit, build_dem, build_program, shots, seed):
    """Median-of-repeats end-to-end pipeline time: DEM + compile + sample.

    Every repeat starts cold (the compiled-program cache is cleared), so
    the rate charges the full per-circuit setup cost -- DEM extraction and
    program compilation -- on top of the packed sampling run, matching how
    an estimator first touches a new circuit.  One untimed warm-up pass
    absorbs one-time process costs (imports, allocator growth).
    """

    def once(run_seed):
        clear_caches()
        start = time.perf_counter()
        dem = build_dem(circuit)
        program = build_program(circuit)
        detectors, observables = program.run_packed(
            shots, np.random.default_rng(run_seed)
        )
        elapsed = time.perf_counter() - start
        return elapsed, dem, program, detectors, observables

    once(seed)  # warm-up
    results = [once(seed) for _ in range(TIMING_REPEATS)]
    elapsed = statistics.median(r[0] for r in results)
    _, dem, program, detectors, observables = results[0]
    return shots / elapsed, dem, program, detectors, observables


def periodic_vs_linear(distance=7, p=1e-3, shots=4096, seed=43):
    """Periodic fault table vs the whole-circuit one, end to end.

    Times DEM extraction + compilation + packed sampling as one cold
    pipeline per repeat (median of ``TIMING_REPEATS`` after warm-up), and
    asserts the two paths agree exactly: the periodic DEM must equal the
    linear DEM mechanism-for-mechanism, and the sampled detector and
    observable planes must be bit-identical at the fixed seed.
    """
    circuit = memory_circuit(distance, distance + 1, p)
    rate_lin, dem_lin, prog_lin, det_lin, obs_lin = _timed_cold_pipeline(
        circuit, linear_dem, CompiledProgram, shots, seed
    )
    rate_per, dem_per, prog_per, det_per, obs_per = _timed_cold_pipeline(
        circuit, extract_dem, compile_program, shots, seed
    )
    assert isinstance(prog_per, PeriodicProgram), (
        f"d={distance} memory circuit must take the periodic compile path"
    )
    assert dem_per.periodic_fallback is None, (
        f"d={distance} memory circuit must take the periodic DEM path"
    )
    assert dem_lin.mechanisms == dem_per.mechanisms, (
        "periodic DEM must equal the linear DEM mechanism-for-mechanism"
    )
    assert np.array_equal(det_lin, det_per) and np.array_equal(obs_lin, obs_per), (
        "the periodic fault table must sample bit-identically to the "
        "whole-circuit table per seed"
    )

    row = {
        "distance": distance,
        "p": p,
        "shots": shots,
        "rounds": distance + 1,
        "linear_shots_per_s": rate_lin,
        "periodic_shots_per_s": rate_per,
        "speedup": rate_per / rate_lin,
        "bit_identical": True,
        "dem_equal": True,
    }
    print(
        f"  d={distance} p={p:g} shots={shots} | linear {rate_lin:7.0f}/s  "
        f"periodic {rate_per:7.0f}/s ({row['speedup']:.1f}x, cold "
        f"DEM+compile+sample)"
    )
    return row


def periodic_d11_point(p=5e-4, shots=2048, seed=53):
    """d=11 low-p point: periodic median-of-3 vs a single linear reference.

    The linear pipeline at d=11 is dominated by the O(rounds) DEM
    extraction and takes >10s per repeat, so it is timed once; the
    periodic path is still the median of ``TIMING_REPEATS`` cold runs.
    """
    distance, rounds = 11, 12
    circuit = memory_circuit(distance, rounds, p)

    clear_caches()
    start = time.perf_counter()
    dem_lin = linear_dem(circuit)
    prog_lin = CompiledProgram(circuit)
    det_lin, obs_lin = prog_lin.run_packed(shots, np.random.default_rng(seed))
    rate_lin = shots / (time.perf_counter() - start)

    rate_per, dem_per, prog_per, det_per, obs_per = _timed_cold_pipeline(
        circuit, extract_dem, compile_program, shots, seed
    )
    assert isinstance(prog_per, PeriodicProgram)
    assert dem_per.periodic_fallback is None
    assert dem_lin.mechanisms == dem_per.mechanisms
    assert np.array_equal(det_lin, det_per) and np.array_equal(obs_lin, obs_per)

    row = {
        "distance": distance,
        "p": p,
        "shots": shots,
        "rounds": rounds,
        "linear_shots_per_s": rate_lin,
        "linear_repeats": 1,
        "periodic_shots_per_s": rate_per,
        "speedup": rate_per / rate_lin,
        "bit_identical": True,
        "dem_equal": True,
    }
    print(
        f"  d={distance} p={p:g} shots={shots} | linear {rate_lin:7.0f}/s "
        f"(single run)  periodic {rate_per:7.0f}/s ({row['speedup']:.1f}x)"
    )
    return row


# -- rare-event importance sampling ---------------------------------------------


# Effective-shots/s gain of the importance-sampled engine over brute
# force at the d=7 rare point, at matched relative error: (IS shots/s x
# per-shot variance ratio) / brute shots/s.  Full-run acceptance target.
RARE_GAIN_TARGET = 100.0
# Kish effective-sample-size floor: below 0.1 * shots a few heavy weights
# dominate the weighted estimate and the proposal is over-inflated.
RARE_ESS_FLOOR = 0.1
# Brute-vs-IS agreement gate in the overlap region, in combined standard
# errors.  Shot counts are chosen so the statistical error (~10%) stays
# above the DEM independent-mechanism approximation's systematic offset
# (~5% at d=5, p=3e-3): the IS path samples the merged DEM directly,
# which is exact only to O(p^2) against the circuit-sampling brute path.
RARE_OVERLAP_SIGMAS = 2.0
# Reference brute-force resolution floor: the rate at which a generous
# fixed-budget brute sweep (1e5 shots/point, larger than any brute run in
# this repo's scenario suite) still expects ~10 failures.  The rare point
# must land >= 2 decades below it.
RARE_BRUTE_FLOOR = 1e-4
RARE_FLOOR_DECADES_TARGET = 2.0


def rare_overlap_check(
    distance=5, p=3e-3, rounds=3, inflation=2.5,
    brute_shots=60_000, is_shots=15_000, seed=37,
):
    """Brute force vs importance sampling where both can measure.

    At d=5, p=3e-3 the failure rate (~2e-3) is cheap for brute force, so
    the two estimators must agree: |IS - brute| within
    ``RARE_OVERLAP_SIGMAS`` combined standard errors, with the IS run's
    effective sample size above ``RARE_ESS_FLOOR`` of its shots.
    """
    circuit = memory_circuit(distance, rounds, p)
    with DecodingEngine(circuit, "mwpm", shard_shots=4096) as brute:
        res_brute = brute.run(brute_shots, seed=seed)
    with rare_engine(
        circuit, "mwpm", inflation=inflation, shard_shots=4096
    ) as rare:
        res_is = rare.run(is_shots, seed=seed)
    sigma = (res_brute.std_error ** 2 + res_is.std_error ** 2) ** 0.5
    z = abs(res_is.weighted_rate - res_brute.rate) / sigma
    row = {
        "distance": distance,
        "p": p,
        "rounds": rounds,
        "inflation": inflation,
        "brute_shots": brute_shots,
        "brute_rate": res_brute.rate,
        "brute_std_error": res_brute.std_error,
        "is_shots": is_shots,
        "is_rate": res_is.weighted_rate,
        "is_std_error": res_is.std_error,
        "agreement_sigmas": z,
        "ess_fraction": res_is.ess / res_is.shots,
    }
    print(
        f"  d={distance} p={p:g} | brute {res_brute.rate:.3e} "
        f"({brute_shots} shots)  IS {res_is.weighted_rate:.3e} "
        f"({is_shots} shots, s={inflation:g})  agreement {z:.2f} sigma  "
        f"ESS {row['ess_fraction']:.2f}n"
    )
    return row


def rare_event_gain(
    distance=7, p=5e-4, rounds=1, inflation=8.0,
    shots=40_000, warm_shots=4096, seed=41,
):
    """d=7 rare point: effective-shots/s of IS vs brute at matched error.

    The failure rate here (~1e-7) is beyond brute force entirely, so the
    brute engine contributes *timing only* (its shots are all-zero-
    dominated; it would need ~1e9 shots for one failure).  The comparison
    is in effective shots per second at matched relative error: one IS
    shot is worth ``p(1-p) / (per-shot IS variance)`` brute shots, so

        gain = (IS shots/s * variance ratio) / (brute shots/s).

    The same row records how far below the brute-force resolution floor
    (``RARE_BRUTE_FLOOR``) the estimate lands, in decades -- the "two
    decades below the old floor" acceptance of the rare-event sweep.
    """
    circuit = memory_circuit(distance, rounds, p)
    brute = DecodingEngine(circuit, "mwpm", shard_shots=4096)
    _, rate_brute = _timed_run(brute.run, shots, warm_shots, seed)
    brute.close()
    rare = rare_engine(
        circuit, "mwpm", inflation=inflation, shard_shots=4096
    )
    res, rate_is = _timed_run(rare.run, shots, warm_shots, seed)
    rare.close()
    p_hat = res.weighted_rate
    per_shot_var = res.variance * res.shots
    variance_ratio = (
        p_hat * (1.0 - p_hat) / per_shot_var if per_shot_var > 0 else 0.0
    )
    effective_rate = rate_is * variance_ratio
    gain = effective_rate / rate_brute if rate_brute > 0 else 0.0
    decades = (
        (np.log10(RARE_BRUTE_FLOOR) - np.log10(p_hat)) if p_hat > 0 else 0.0
    )
    row = {
        "distance": distance,
        "p": p,
        "rounds": rounds,
        "inflation": inflation,
        "shots": shots,
        "failures": res.failures,
        "rate": p_hat,
        "std_error": res.std_error,
        "rel_error": res.rel_error,
        "ess_fraction": res.ess / res.shots,
        "brute_shots_per_s": rate_brute,
        "is_shots_per_s": rate_is,
        "variance_ratio": variance_ratio,
        "effective_shots_per_s": effective_rate,
        "effective_gain": gain,
        "brute_floor": RARE_BRUTE_FLOOR,
        "floor_extension_decades": float(decades),
    }
    print(
        f"  d={distance} p={p:g} | rate {p_hat:.3e} +- {res.std_error:.1e} "
        f"({res.failures} weighted failures)  brute {rate_brute:7.0f}/s  "
        f"IS {rate_is:7.0f}/s x {variance_ratio:.0f} variance = "
        f"{effective_rate:9.0f} eff/s ({gain:.0f}x), "
        f"{decades:.1f} decades below the {RARE_BRUTE_FLOOR:g} brute floor"
    )
    return row


def _assert_rare_overlap(row: dict) -> None:
    assert row["agreement_sigmas"] <= RARE_OVERLAP_SIGMAS, (
        f"importance-sampled estimate {row['is_rate']:.3e} disagrees with "
        f"brute force {row['brute_rate']:.3e} by "
        f"{row['agreement_sigmas']:.2f} sigma (gate {RARE_OVERLAP_SIGMAS})"
    )
    assert row["ess_fraction"] >= RARE_ESS_FLOOR, (
        f"importance-sampling ESS at {row['ess_fraction']:.3f} of shots "
        f"(floor {RARE_ESS_FLOOR}); the proposal is over-inflated"
    )


def _assert_rare_gain(row: dict) -> None:
    assert row["effective_gain"] >= RARE_GAIN_TARGET, (
        f"rare-event engine only {row['effective_gain']:.0f}x effective "
        f"shots/s over brute force (target {RARE_GAIN_TARGET}x)"
    )
    assert row["floor_extension_decades"] >= RARE_FLOOR_DECADES_TARGET, (
        f"rare point at {row['rate']:.2e} is only "
        f"{row['floor_extension_decades']:.1f} decades below the brute "
        f"floor {row['brute_floor']:g} (target {RARE_FLOOR_DECADES_TARGET})"
    )


# -- telemetry overhead gate ----------------------------------------------------


# Metrics-enabled throughput must stay within 3% of disabled.  Recording
# is per *batch* (one histogram observe + a few counter incs per
# 1024-shot shard), so the true overhead is far below the gate; the
# margin exists to absorb scheduler noise, not to license regressions.
METRICS_OVERHEAD_FLOOR = 0.97
OVERHEAD_REPEATS = 8


def metrics_overhead(distance=5, p=1e-3, shots=5_000, seed=61):
    """Packed-engine shots/s with metrics enabled vs disabled.

    Throughput on this class of shared machine drifts by +-10% over
    seconds-long windows -- an order of magnitude above the true
    telemetry cost (~90us of snapshot/delta/merge per ~30ms shard) --
    and back-to-back runs show a consistent "second run faster" warm-up
    of several percent, so neither independent rate comparisons nor
    simple interleaved pairs can resolve a 3% gate.  Each repeat
    therefore measures an A-B-A *triple* on one freshly-warmed seed:
    the bracketed mode runs once between two runs of the other mode,
    and its rate is compared against the bracket *average*, which
    cancels any locally-linear drift exactly.  Which mode sits in the
    middle alternates across repeats (cancelling position bias that is
    not linear), every repeat draws a fresh seed, and the reported
    ratio is the median of the per-triple ratios.
    """
    if not obs.tracing_enabled():
        # Disabled-mode spans must compile to a shared no-op object --
        # the zero-overhead contract for un-traced runs.
        assert obs.span("a") is obs.span("b"), (
            "disabled spans must be a shared no-op singleton"
        )
    circuit = memory_circuit(distance, distance + 1, p)
    engine = DecodingEngine(circuit, "mwpm", shard_shots=1024)
    engine.run(2048, seed=seed)  # warm: compile, DEM, cluster caches

    def timed(run_seed, metered):
        if not metered:
            with obs.metrics_disabled():
                start = time.perf_counter()
                engine.run(shots, seed=run_seed)
                return shots / (time.perf_counter() - start)
        start = time.perf_counter()
        engine.run(shots, seed=run_seed)
        return shots / (time.perf_counter() - start)

    ratios = []
    rates = {False: [], True: []}
    for repeat in range(OVERHEAD_REPEATS):
        run_seed = seed + 1 + repeat
        engine.run(shots, seed=run_seed)  # warm this seed's syndromes
        middle = repeat % 2 == 0  # True: off-ON-off; False: on-OFF-on
        outer1 = timed(run_seed, not middle)
        inner = timed(run_seed, middle)
        outer2 = timed(run_seed, not middle)
        bracket = (outer1 + outer2) / 2
        if middle:
            rates[True].append(inner)
            rates[False].append(bracket)
            ratios.append(inner / bracket)
        else:
            rates[False].append(inner)
            rates[True].append(bracket)
            ratios.append(bracket / inner)
    row = {
        "distance": distance,
        "p": p,
        "shots": shots,
        "repeats": OVERHEAD_REPEATS,
        "disabled_shots_per_s": statistics.median(rates[False]),
        "enabled_shots_per_s": statistics.median(rates[True]),
        "enabled_over_disabled": statistics.median(ratios),
    }
    print(
        f"  d={distance} p={p:g} shots={shots} | metrics off "
        f"{row['disabled_shots_per_s']:7.0f}/s  on "
        f"{row['enabled_shots_per_s']:7.0f}/s "
        f"(median A-B-A ratio {row['enabled_over_disabled']:.3f})"
    )
    return row


def _assert_overhead(row: dict) -> None:
    assert row["enabled_over_disabled"] >= METRICS_OVERHEAD_FLOOR, (
        f"metrics-enabled engine at {row['enabled_over_disabled']:.3f}x of "
        f"disabled throughput (floor {METRICS_OVERHEAD_FLOOR})"
    )


def _assert_periodic(row: dict, target: float) -> None:
    assert row["speedup"] >= target, (
        f"periodic compilation only {row['speedup']:.2f}x over the linear "
        f"pipeline at d={row['distance']} (target {target}x)"
    )


def _assert_biased(row: dict) -> None:
    # Degenerate-weight ties can flip a handful of shots either way; the
    # DEM-weighted matcher must stay at-or-below the baseline beyond that.
    slack = max(2, row["shots"] // 2000)
    assert row["failures_weighted"] <= row["failures_uniform"] + slack, (
        f"DEM-weighted MWPM ({row['failures_weighted']}) decoded worse than "
        f"the uniform baseline ({row['failures_uniform']}) under biased noise"
    )


def _write_output(rows: dict, output: Path = OUTPUT) -> None:
    # Provenance stamp: code fingerprint, timestamp (BENCH_TIMESTAMP
    # when the harness pins one), host and interpreter versions -- so
    # the perf trajectory in BENCH_*.json is attributable across PRs.
    rows = dict(rows)
    rows["meta"] = obs.run_metadata()
    output.write_text(json.dumps(rows, indent=2) + "\n")


# -- pytest entry points --------------------------------------------------------


def test_engine_speedup_and_determinism(benchmark):
    """d=5 acceptance point plus the d=3/d=7 context rows."""
    print()
    _report(3, 1e-3, 10_000)
    base_rate, fast_rate = _report(5, 1e-3, 10_000)
    _report(7, 1e-3, 4_000)

    circuit = memory_circuit(5, 6, 1e-3)
    results = []
    for workers in (1, 4):
        with DecodingEngine(
            circuit, "mwpm", shard_shots=1024, workers=workers
        ) as engine:
            res = engine.run(10_000, seed=11)
        results.append((res.shots, res.failures, res.shards))
    print(f"  1w vs 4w at fixed seed: {results[0]} vs {results[1]}")
    assert results[0] == results[1], "engine must be worker-count invariant"
    assert fast_rate >= 5 * base_rate, (
        f"engine speedup {fast_rate / base_rate:.1f}x below the 5x target"
    )

    # Benchmark the engine's hot path itself for the pedantic record.
    engine = DecodingEngine(circuit, "mwpm", shard_shots=1024, workers=1)
    benchmark.pedantic(lambda: engine.run(5_000, seed=13), rounds=1, iterations=1)


def test_union_find_engine_throughput(benchmark):
    """Union-find through the engine: the faster, looser decoder."""
    circuit = memory_circuit(5, 6, 1e-3)
    engine = DecodingEngine(circuit, "union_find", shard_shots=1024, workers=1)
    result = benchmark.pedantic(
        lambda: engine.run(5_000, seed=13), rounds=1, iterations=1
    )
    print()
    print(f"  union_find d=5: {result.failures}/{result.shots} failures")
    assert result.shots == 5_000


def _assert_speedups(row: dict) -> None:
    assert row["speedup_vs_per_shot_baseline"] >= PACKED_SPEEDUP_TARGET, (
        f"packed engine only {row['speedup_vs_per_shot_baseline']:.1f}x over "
        f"the per-shot baseline (target {PACKED_SPEEDUP_TARGET}x)"
    )
    assert row["speedup_vs_unpacked_engine"] >= ENGINE_SPEEDUP_FLOOR, (
        f"packed engine only {row['speedup_vs_unpacked_engine']:.1f}x over "
        f"the unpacked dedup engine (floor {ENGINE_SPEEDUP_FLOOR}x)"
    )


def test_packed_engine_speedup():
    """d=7, p=1e-3 packed acceptance point; writes BENCH_frame.json."""
    print()
    row = packed_vs_unpacked()
    biased = biased_noise_point()
    print("decode-phase overhaul (quick gate, d=5/d=7):")
    decode_block = {"quick_gate": decode_phase_quick_gate()}
    print("periodic round-compilation (d=7, p=1e-3):")
    periodic = periodic_vs_linear()
    print("rare-event importance sampling (overlap d=5, gain d=7):")
    rare_overlap = rare_overlap_check()
    rare_gain = rare_event_gain()
    print("telemetry overhead (d=5, p=1e-3):")
    overhead = metrics_overhead()
    _write_output({
        "packed_vs_unpacked": row,
        "biased_d7": biased,
        "decode_phase": decode_block,
        "periodic_vs_linear": {"d7": periodic},
        "rare_event": {"overlap": rare_overlap, "gain": rare_gain},
        "metrics_overhead": overhead,
    })
    _assert_speedups(row)
    _assert_biased(biased)
    _assert_decode_quick(decode_block["quick_gate"])
    _assert_periodic(periodic, PERIODIC_SPEEDUP_TARGET)
    _assert_rare_overlap(rare_overlap)
    _assert_rare_gain(rare_gain)
    _assert_overhead(overhead)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced shot counts for CI smoke runs",
    )
    args = parser.parse_args()
    print("packed frame pipeline (d=7, p=1e-3):")
    if args.quick:
        row = packed_vs_unpacked(shots=1500, warm_shots=512)
    else:
        row = packed_vs_unpacked()
    print("biased-noise point (d=7, p=3e-3, PAULI_CHANNEL_1/2):")
    if args.quick:
        biased = biased_noise_point(shots=1500, warm_shots=512)
    else:
        biased = biased_noise_point()
    print("decode-phase overhaul (quick gate, d=5/d=7):")
    decode_block = {"quick_gate": decode_phase_quick_gate()}
    if not args.quick:
        print("decode-phase overhaul (d=11, p=5e-4):")
        decode_block["d11"] = decode_phase()
    print("periodic round-compilation (d=7, p=1e-3):")
    periodic_block = {"d7": periodic_vs_linear()}
    if not args.quick:
        print("periodic round-compilation (d=11, p=5e-4):")
        periodic_block["d11"] = periodic_d11_point()
    print("rare-event importance sampling (overlap d=5, gain d=7):")
    if args.quick:
        rare_overlap = rare_overlap_check(brute_shots=30_000, is_shots=8_000)
        rare_gain = rare_event_gain(shots=8_000, warm_shots=1024)
    else:
        rare_overlap = rare_overlap_check()
        rare_gain = rare_event_gain()
    print("telemetry overhead (d=5, p=1e-3):")
    overhead = metrics_overhead()
    output = QUICK_OUTPUT if args.quick else OUTPUT
    _write_output({
        "packed_vs_unpacked": row,
        "biased_d7": biased,
        "decode_phase": decode_block,
        "periodic_vs_linear": periodic_block,
        "rare_event": {"overlap": rare_overlap, "gain": rare_gain},
        "metrics_overhead": overhead,
    }, output)
    _assert_speedups(row)
    _assert_biased(biased)
    # Quick/CI runs gate the decode overhaul on "equal on order-insensitive
    # rows and never slower" at d=5/d=7; the full run additionally holds the d=11 3x
    # decode-phase and 1.5x end-to-end acceptance targets.
    _assert_decode_quick(decode_block["quick_gate"])
    if not args.quick:
        _assert_decode_phase(decode_block["d11"])
    # Quick/CI runs gate on "periodic path active and never slower"; the
    # full run holds the 2x end-to-end acceptance target and the d=11
    # low-p point.
    _assert_periodic(
        periodic_block["d7"],
        PERIODIC_QUICK_FLOOR if args.quick else PERIODIC_SPEEDUP_TARGET,
    )
    if not args.quick:
        _assert_periodic(periodic_block["d11"], PERIODIC_SPEEDUP_TARGET)
    # Quick runs gate the rare path on correctness only (unbiased in the
    # overlap region, healthy ESS); the full run additionally holds the
    # 100x effective-throughput and floor-extension targets, whose
    # variance estimates need the full shot counts.
    _assert_rare_overlap(rare_overlap)
    if not args.quick:
        _assert_rare_gain(rare_gain)
    _assert_overhead(overhead)
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
