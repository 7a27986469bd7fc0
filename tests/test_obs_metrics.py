"""Telemetry-layer tests: mergeable metrics, exposition, invariance.

The load-bearing contract is PR 1's worker-count invariance extended to
telemetry: the deterministic counter/histogram families merged from
``jobs=4`` shard deltas must be *identical* to a ``jobs=1`` run of the
same seed.  Around that sit unit tests for the histogram bucket/merge/
percentile math, the snapshot/delta/merge protocol, the registry's
get-or-create contract, and the strict Prometheus parser that CI points
at ``/metrics``.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from oracles import linear_dem, periodic_program, pin_program

from repro.decoder.engine import DecodingEngine
from repro.noise.dem import extract_dem
from repro.obs import (
    COUNT_BUCKETS,
    REGISTRY,
    MetricsRegistry,
    metrics_disabled,
    parse_prometheus,
    percentiles,
    render_prometheus,
    run_metadata,
)
from repro.sim.circuit import Circuit
from repro.sim.compiled import CompiledProgram
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit


@pytest.fixture
def registry():
    return MetricsRegistry()


# -- counters and gauges --------------------------------------------------------


def test_counter_inc_and_labels(registry):
    shots = registry.counter("shots_total", "Shots.", ("decoder",))
    shots.labels(decoder="mwpm").inc(5)
    shots.labels(decoder="mwpm").inc(2.5)
    shots.labels(decoder="union_find").inc()
    snap = registry.snapshot()["shots_total"]
    assert snap["type"] == "counter"
    assert snap["series"] == {("mwpm",): 7.5, ("union_find",): 1.0}


def test_counter_rejects_negative(registry):
    errors = registry.counter("errors_total")
    with pytest.raises(ValueError, match="only increase"):
        errors.inc(-1)


def test_gauge_set_and_inc(registry):
    depth = registry.gauge("queue_depth")
    depth.set(3)
    depth.inc(2)
    assert depth.value == 5.0
    depth.set(0)
    assert depth.value == 0.0


def test_redeclare_same_shape_returns_same_family(registry):
    a = registry.counter("hits_total", "Hits.", ("cache",))
    b = registry.counter("hits_total", "Hits.", ("cache",))
    assert a is b


def test_redeclare_different_type_or_labels_is_error(registry):
    registry.counter("x_total", labelnames=("a",))
    with pytest.raises(ValueError, match="already declared"):
        registry.gauge("x_total", labelnames=("a",))
    with pytest.raises(ValueError, match="already declared"):
        registry.counter("x_total", labelnames=("b",))


def test_wrong_label_names_rejected(registry):
    shots = registry.counter("shots_total", labelnames=("decoder",))
    with pytest.raises(ValueError, match="expected labels"):
        shots.labels(decoders="mwpm")


# -- histograms -----------------------------------------------------------------


def test_histogram_bucket_placement(registry):
    hist = registry.histogram("lat", bounds=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.001, 0.005, 0.05, 5.0):
        hist.observe(value)
    snap = registry.snapshot()["lat"]["series"][()]
    # le semantics: 0.0005 and 0.001 both land in the le=0.001 bucket;
    # 5.0 overflows into +Inf.
    assert snap["buckets"] == [2, 1, 1, 1]
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(5.0565)


def test_histogram_percentile_interpolation(registry):
    hist = registry.histogram("lat", bounds=(1.0, 2.0, 4.0))
    for _ in range(10):
        hist.observe(1.5)  # all in the (1, 2] bucket
    # The q-th point interpolates linearly across the containing bucket.
    assert hist.percentile(0.5) == pytest.approx(1.5)
    assert hist.percentile(1.0) == pytest.approx(2.0)
    assert hist.percentile(0.1) == pytest.approx(1.1)


def test_histogram_percentile_empty_and_overflow(registry):
    hist = registry.histogram("lat", bounds=(1.0, 2.0))
    assert math.isnan(hist.percentile(0.5))
    hist.observe(100.0)  # +Inf bucket reports the last finite bound
    assert hist.percentile(0.99) == pytest.approx(2.0)


def test_histogram_bounds_validation(registry):
    with pytest.raises(ValueError, match="ascending"):
        registry.histogram("bad", bounds=(2.0, 1.0))
    with pytest.raises(ValueError, match="implicit"):
        registry.histogram("bad2", bounds=(1.0, math.inf))


def test_histogram_merged_percentile_across_labels(registry):
    hist = registry.histogram("lat", labelnames=("d",), bounds=(1.0, 2.0, 4.0))
    for _ in range(8):
        hist.labels(d="a").observe(0.5)
    for _ in range(2):
        hist.labels(d="b").observe(3.0)
    # 10 observations total; p50 in the first bucket, p95 in the third.
    assert hist.merged_percentile(0.5) == pytest.approx(0.625)
    assert hist.merged_percentile(0.95) > 2.0


def test_count_buckets_cover_batch_sizes():
    assert COUNT_BUCKETS[0] == 1.0
    assert COUNT_BUCKETS[-1] == 65536.0


# -- snapshot / delta / merge ---------------------------------------------------


def test_delta_since_counters_and_histograms(registry):
    shots = registry.counter("shots_total", labelnames=("decoder",))
    lat = registry.histogram("lat", bounds=(1.0, 2.0))
    shots.labels(decoder="mwpm").inc(3)
    lat.observe(0.5)
    base = registry.snapshot()
    shots.labels(decoder="mwpm").inc(2)
    shots.labels(decoder="uf").inc(1)
    lat.observe(1.5)
    delta = registry.delta_since(base)
    assert delta["shots_total"]["series"] == {("mwpm",): 2.0, ("uf",): 1.0}
    assert delta["lat"]["series"][()]["buckets"] == [0, 1, 0]
    assert delta["lat"]["series"][()]["count"] == 1


def test_delta_drops_unchanged_and_gauges(registry):
    registry.counter("quiet_total").inc(4)
    registry.gauge("depth").set(9)
    base = registry.snapshot()
    registry.gauge("depth").set(11)
    assert registry.delta_since(base) == {}


def test_merge_into_other_registry(registry):
    shots = registry.counter("shots_total", labelnames=("decoder",))
    lat = registry.histogram("lat", bounds=(1.0, 2.0))
    base = registry.snapshot()
    shots.labels(decoder="mwpm").inc(5)
    lat.observe(1.5)
    delta = registry.delta_since(base)

    parent = MetricsRegistry()
    parent.counter("shots_total", labelnames=("decoder",)).labels(
        decoder="mwpm"
    ).inc(1)
    parent.merge(delta)
    parent.merge(delta)  # merging twice doubles -- pure addition
    snap = parent.snapshot()
    assert snap["shots_total"]["series"][("mwpm",)] == 11.0
    assert snap["lat"]["series"][()]["count"] == 2


def test_merge_rejects_mismatched_bounds(registry):
    lat = registry.histogram("lat", bounds=(1.0, 2.0))
    base = registry.snapshot()
    lat.observe(1.5)
    delta = registry.delta_since(base)
    parent = MetricsRegistry()
    parent.histogram("lat", bounds=(1.0, 2.0, 4.0))
    with pytest.raises(ValueError, match="bounds differ"):
        parent.merge(delta)


def test_metrics_disabled_suppresses_recording(registry):
    shots = registry.counter("shots_total")
    lat = registry.histogram("lat", bounds=(1.0,))
    with metrics_disabled():
        shots.inc(100)
        lat.observe(0.5)
    assert shots.value == 0.0
    assert registry.snapshot()["lat"]["series"][()]["count"] == 0


def test_reset_zeroes_but_keeps_families(registry):
    shots = registry.counter("shots_total", labelnames=("decoder",))
    shots.labels(decoder="mwpm").inc(7)
    registry.reset()
    assert registry.snapshot()["shots_total"]["series"][("mwpm",)] == 0.0


# -- collectors -----------------------------------------------------------------


def test_collector_appears_in_collect_not_delta(registry):
    def stats():
        return {
            "cache_entries": ("gauge", "Entries.", ("cache",), {("dem",): 4.0}),
        }

    registry.register_collector(stats)
    collected = registry.collect()
    assert collected["cache_entries"]["series"][("dem",)] == 4.0
    assert "cache_entries" not in registry.snapshot()
    assert "cache_entries" not in registry.delta_since({})
    registry.unregister_collector(stats)
    assert "cache_entries" not in registry.collect()


# -- prometheus exposition ------------------------------------------------------


def test_render_parse_round_trip(registry):
    shots = registry.counter("repro_shots_total", "Shots.", ("decoder",))
    shots.labels(decoder="mwpm").inc(12)
    lat = registry.histogram("repro_lat_seconds", "Latency.", bounds=(0.1, 1.0))
    lat.observe(0.05)
    lat.observe(0.5)
    lat.observe(5.0)
    registry.gauge("repro_depth", "Depth.").set(2)
    text = render_prometheus(registry)
    families = parse_prometheus(text)
    assert families["repro_shots_total"]["type"] == "counter"
    samples = {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in families["repro_lat_seconds"]["samples"]
    }
    # Buckets cumulate: le=0.1 holds 1, le=1.0 holds 2, +Inf holds all 3.
    assert samples[("repro_lat_seconds_bucket", (("le", "0.1"),))] == 1.0
    assert samples[("repro_lat_seconds_bucket", (("le", "1"),))] == 2.0
    assert samples[("repro_lat_seconds_bucket", (("le", "+Inf"),))] == 3.0
    assert samples[("repro_lat_seconds_count", ())] == 3.0
    assert families["repro_depth"]["samples"] == [("repro_depth", {}, 2.0)]


@pytest.mark.parametrize(
    "text, message",
    [
        ("# TYPE 9bad counter\n9bad 1\n", "invalid metric name"),
        ("# TYPE x counter\nx{le=} 1\n", "malformed"),
        ("# TYPE x wibble\n", "unknown metric type"),
        ("# TYPE x counter\nx 1\nx 2\n", "duplicate sample"),
        ("orphan 1\n", "precedes"),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 2\nh_bucket{le="+Inf"} 1\nh_count 1\nh_sum 1\n',
            "not monotone",
        ),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\nh_count 1\nh_sum 1\n',
            r"missing \+Inf",
        ),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\nh_bucket{le="+Inf"} 2\nh_count 1\nh_sum 1\n',
            "_count",
        ),
    ],
)
def test_parser_rejects_malformed(text, message):
    with pytest.raises(ValueError, match=message):
        parse_prometheus(text)


def test_global_metrics_exposition_is_valid():
    """The real registry (engine/decoder/cache families) renders cleanly."""
    parse_prometheus(render_prometheus())


# -- run metadata ---------------------------------------------------------------


def test_run_metadata_stamp(monkeypatch):
    monkeypatch.setenv("BENCH_TIMESTAMP", "2026-08-08T00:00:00Z")
    meta = run_metadata()
    assert meta["timestamp"] == "2026-08-08T00:00:00Z"
    assert set(meta) >= {"code_version", "hostname", "python", "numpy"}


# -- worker-count invariance of merged telemetry --------------------------------

# Families whose merged values are deterministic functions of
# (seed, shard_shots): pure shot/failure/shape counts, never wall clock.
DETERMINISTIC_FAMILIES = (
    "repro_engine_shots_total",
    "repro_engine_failures_total",
    "repro_engine_shards_total",
    "repro_decode_shots_total",
)


def _engine_telemetry(workers):
    REGISTRY.reset()
    circuit = memory_circuit(3, 4, 1e-3)
    with DecodingEngine(
        circuit, "mwpm", shard_shots=256, workers=workers
    ) as engine:
        result = engine.run(2048, seed=7)
    snap = REGISTRY.snapshot()
    return result, {name: snap[name]["series"] for name in DETERMINISTIC_FAMILIES}


def test_merged_telemetry_is_worker_count_invariant():
    """jobs=1 and jobs=4 merge to identical deterministic families."""
    result_1, families_1 = _engine_telemetry(workers=1)
    result_4, families_4 = _engine_telemetry(workers=4)
    assert (result_1.shots, result_1.failures) == (
        result_4.shots,
        result_4.failures,
    )
    assert families_1 == families_4
    assert families_1["repro_engine_shots_total"][()] == 2048.0
    assert families_1["repro_engine_shards_total"][()] == 8.0
    # Decode latency is observable programmatically even though its
    # *values* are wall clock: count/shape only via the families above.
    p = percentiles("repro_decode_seconds", (0.5, 0.99))
    assert not math.isnan(p[0.5]) and p[0.5] <= p[0.99]


# -- periodic-fallback observability --------------------------------------------


def test_periodic_fallback_reason_counted_and_surfaced():
    REGISTRY.reset()
    # The reason rides on each extraction's own model: a later periodic
    # extraction must not overwrite the earlier fallback's reason.
    short = extract_dem(memory_circuit(3, 4, 1e-3))  # 4 rounds < surrogate floor
    periodic = extract_dem(memory_circuit(3, 12, 1e-3))
    assert short.periodic_fallback == "few_reps"
    assert short.merged().periodic_fallback == "few_reps"
    assert short.reweighted(2.0).periodic_fallback == "few_reps"
    assert periodic.periodic_fallback is None
    assert short == linear_dem(memory_circuit(3, 4, 1e-3))
    snap = REGISTRY.snapshot()
    series = snap["repro_periodic_fallback_total"]["series"]
    assert series.get(("few_reps",), 0.0) >= 1.0

    with DecodingEngine(memory_circuit(3, 4, 1e-3), "mwpm") as engine:
        assert engine.periodic_fallback_reason == "few_reps"
    with DecodingEngine(memory_circuit(3, 12, 1e-3), "mwpm") as engine:
        assert engine.periodic_fallback_reason is None


@pytest.mark.parametrize("rounds,shift", [(4, 24), (12, 24), (1, None)])
def test_detector_shift_carried_to_the_graph(rounds, shift):
    """The round's detector count rides on the model whether or not the
    periodic extraction fell back, through ``merged``, ``reweighted``
    and both graph lowerings."""
    from repro.decoder.graph import DecodingGraph

    dem = extract_dem(memory_circuit(5, rounds, 1e-3))
    assert dem.detector_shift == shift
    assert dem.merged().detector_shift == shift
    assert dem.reweighted(2.0).detector_shift == shift
    assert dem.reweighted(2.0).merged().detector_shift == shift
    assert dem == replace(dem, detector_shift=7)
    assert DecodingGraph.from_dem(dem).detector_shift == (shift or 0)
    assert DecodingGraph.from_dem_uniform(dem).detector_shift == (shift or 0)
    assert DecodingGraph(dem.num_detectors, dem.num_observables).detector_shift == 0


def test_extract_seconds_include_the_merge(monkeypatch):
    """repro_dem_extract_seconds_total times the whole extraction."""
    from repro.noise import dem as _dem

    merge = _dem._merge

    def slow_merge(*args):
        time.sleep(0.25)
        return merge(*args)

    circuit = memory_circuit(3, 4, 1e-3)
    _dem.circuit_faults(circuit)  # fault table memoized: the merge dominates
    monkeypatch.setattr(_dem, "_merge", slow_merge)
    REGISTRY.reset()
    extract_dem(circuit)
    series = REGISTRY.snapshot()["repro_dem_extract_seconds_total"]["series"]
    assert series[("linear",)] >= 0.25


# -- sampler noise hits ---------------------------------------------------------


@pytest.mark.parametrize("mode", ["linear", "periodic"])
def test_noise_hits_counted_once_per_run_packed(mode):
    # X_ERROR on distinct qubits, each measured into its own detector:
    # every drawn hit is exactly one set detector bit.
    circuit = Circuit()
    for _ in range(3):
        circuit.x_error([0, 1, 2, 3], 0.05).measure(0, 1, 2, 3).reset(0, 1, 2, 3)
    for record in range(12):
        circuit.detector([record])
    build = {"linear": CompiledProgram, "periodic": periodic_program}[mode]
    sim = pin_program(FrameSimulator(circuit), build(circuit))
    REGISTRY.reset()
    keys, _ = sim.sample_packed(1000, rng=np.random.default_rng(3))
    hits = REGISTRY.snapshot()["repro_sim_noise_hits_total"]["series"][()]
    assert hits == np.unpackbits(keys).sum() > 0
    with metrics_disabled():
        sim.sample_packed(1000, rng=np.random.default_rng(3))
    assert REGISTRY.snapshot()["repro_sim_noise_hits_total"]["series"][()] == hits
