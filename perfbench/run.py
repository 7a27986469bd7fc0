"""Monte-Carlo estimator benchmark: one workload per invocation.

    python3 perfbench/run.py --workload brute_d11_uf --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off: ``setup_s`` (median of several cold set-ups,
every repro cache emptied before each), ``shots_per_s`` (the timed
phase's shots over its units' wall time) and ``peak_rss_mb`` (this
process plus its largest pool worker).  Both times are scaled to a
reference host speed measured next to them (``hostspeed.py``), because
a shared host drifts by more than any bound over minutes.  ``--trace 1``
runs a shorter timed phase untraced, then replays the same units with
``workers=1`` under the layer tracer and reports the per-layer metrics;
the replay must reproduce every unit's outcome exactly.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it holds the run's details:
provenance, check outcomes, and the set-up breakdown.  Details and the
Chrome trace of a traced run are also written under ``perfbench/.out``.
Operations are the timed units, the traced replays and the output checks;
one that raises or misses its check counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bootstrap  # noqa: E402  (thread caps before numpy)
import hostspeed  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".out")

# An untraced run repeats the cold set-up: PRE_SETUPS times before the
# timed phase (the last one serves it), then after it until there are at
# least MIN_SETUPS samples and SETUP_SECONDS of them (at most MAX_SETUPS).
# setup_s is their median, each scaled by a host-speed sample taken just
# before it.  A cheap set-up gets more samples.
PRE_SETUPS, MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 2, 4, 12, 3.0

# A traced run times its untraced phase for this share of --seconds: the
# workers=1 replay under the tracer takes two to four times as long as
# the phase it replays, and the whole run must end within three minutes.
TRACED_SHARE = 0.5


def run_units(workload, state, seed, *, seconds=None, count=None,
              unit_span=contextlib.nullcontext, host=None):
    """Run units until ``seconds`` have passed (or ``count`` units).

    Returns one ``(UnitResult or None, wall seconds)`` per unit; a unit
    that raised is None.  With a ``host`` list, a host-speed sample is
    appended to it before every unit.
    """
    runs = []
    start = time.perf_counter()
    while (
        len(runs) < count if count is not None
        else not runs or time.perf_counter() - start < seconds
    ):
        if host is not None:
            host.append(hostspeed.sample())
        t0 = time.perf_counter()
        try:
            with unit_span():
                result = workload.unit(state, seed, len(runs))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        runs.append((result, time.perf_counter() - t0))
    return runs


def timed_run(workload, seed, seconds, workers, repeat_setup):
    """Cold set-ups around the timed phase; returns a summary dict."""
    from workloads import fresh_setup

    setup_s, setup_host_s, pool_start_s, host_s = [], [], [], []

    def set_up():
        gc.collect()
        setup_host_s.append(hostspeed.sample())
        start = time.perf_counter()
        state = fresh_setup(workload, workers)
        setup_s.append(time.perf_counter() - start)
        pool_start_s.append(state.pool_start_s)
        return state

    for _ in range(PRE_SETUPS - 1 if repeat_setup else 0):
        set_up().close()
    state = set_up()
    try:
        runs = run_units(workload, state, seed, seconds=seconds, host=host_s)
        checks = workload.check(state, [r for r, _ in runs if r is not None])
    finally:
        state.close()
    while repeat_setup and (
        len(setup_s) < MIN_SETUPS
        or sum(setup_s) < SETUP_SECONDS and len(setup_s) < MAX_SETUPS
    ):
        set_up().close()
    return {
        "setup_s": setup_s,
        "setup_host_s": setup_host_s,
        "host_s": host_s,
        "pool_start_s": pool_start_s,
        "runs": runs,
        "checks": checks,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; children are the reaped pool workers.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def traced_run(workload, seed, workers, untraced):
    """Replay the untraced run's units with workers=1 under the tracer."""
    import layers
    from repro.core.cache import cache_stats
    from repro.obs import spans
    from workloads import fresh_setup

    count = len(untraced["runs"])
    tracer = layers.Tracer()
    with tracer:
        with tracer.span("bench.setup"):
            state = fresh_setup(workload, 1)
        try:
            tracer.phase = "run"
            runs = run_units(
                workload, state, seed, count=count,
                unit_span=lambda: tracer.span("bench.unit"),
            )
            cache = cache_stats().get("repro.decoder.syndrome", (0, 0, 0))
            checks = workload.check(state, [r for r, _ in runs if r is not None])
        finally:
            state.close()
    untraced_wall = sum(wall for _, wall in untraced["runs"])
    metrics = layers.layer_metrics(
        rounds=workload.rounds,
        workers=workers,
        untraced_wall=untraced_wall,
        pool_start_s=statistics.median(untraced["pool_start_s"]),
        shards=sum(r.shards for r, _ in runs if r is not None),
        cache=cache,
        rare_totals=getattr(state, "totals", None),
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}.trace.json")
    spans.write_trace(trace_path)
    spans.clear_trace()
    return runs, checks, metrics, trace_path


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process and wait for it.

    The shared-memory collect transport starts that helper; stopping it
    here means a run leaves no process of its own behind.
    """
    from multiprocessing import resource_tracker

    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        bootstrap.use_source_tree()
    except bootstrap.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import workloads
    from repro.obs.meta import run_metadata
    from repro.parallel.reaction import ReactionModel

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workers = bootstrap.worker_count() if workload.parallel else 1
    untraced = timed_run(
        workload, args.seed,
        args.seconds * (TRACED_SHARE if args.trace else 1.0), workers,
        repeat_setup=not args.trace,
    )
    runs, checks = untraced["runs"], dict(untraced["checks"])
    attempted = len(runs) + len(checks)
    failed = sum(r is None for r, _ in runs)
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "meta": dict(run_metadata(), nproc=os.cpu_count(), workers=workers),
        "units": len(runs),
        "unit_wall_s": [wall for _, wall in runs],
        "unit_host_s": untraced["host_s"],
        "setup_s": untraced["setup_s"],
        "setup_host_s": untraced["setup_host_s"],
        "raw_shots_per_s": workload.throughput(runs),
    }
    if args.trace:
        traced_runs, traced_checks, metrics, trace_path = traced_run(
            workload, args.seed, workers, untraced
        )
        checks.update({f"traced.{k}": v for k, v in traced_checks.items()})
        mismatched = [
            i for i, ((a, _), (b, _)) in enumerate(zip(runs, traced_runs))
            if a is None or b is None or a.outcome != b.outcome
        ]
        attempted += len(traced_runs) + len(traced_checks)
        failed += len(mismatched)
        details.update(
            traced_workers=1,
            traced_unit_wall_s=[wall for _, wall in traced_runs],
            fidelity_mismatched_units=mismatched,
            trace_file=os.path.relpath(trace_path, bootstrap.ROOT),
            setup_breakdown_s={
                k: metrics[k] for k in (
                    "circuit.build_s", "dem.extract_s", "sim.compile_s",
                    "decoder.build_s", "engine.pool_start_s",
                )
            },
            decode_latency=(
                "software-decoder measurement, warm batches on one core: "
                f"{metrics['decode.us_per_shot_round']:.3g} us per shot-round; "
                "the paper's ReactionModel.decode_time assumes "
                f"{ReactionModel().decode_time * 1e6:.3g} us"
            ),
        )
    else:
        metrics = {
            "shots_per_s": workload.throughput(runs)
            * hostspeed.factor(untraced["host_s"]),
            "setup_s": statistics.median(
                s / hostspeed.factor([h])
                for s, h in zip(untraced["setup_s"], untraced["setup_host_s"])
            ),
            "peak_rss_mb": peak_rss_mb(),
        }
    stop_resource_tracker()
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(
            "measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}"
        )
    failed += sum(problem is not None for problem in checks.values())
    details["checks"] = checks
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump(dict(details, metrics=metrics), handle, indent=1)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k], "unit": unit} for k, unit in units.items()
        },
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
