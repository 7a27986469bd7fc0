"""Bench E-EST: shared scenario runner timing the estimation pipeline.

Times every registered analytic scenario three ways and writes
``BENCH_estimator.json`` at the repo root:

* ``uncached_serial_s`` -- sub-model caching bypassed (the pre-refactor
  cost model: every grid point re-derives timing/factory/lookup
  sub-models from scratch);
* ``serial_s`` -- the pipeline as shipped, cold caches at the start of
  the run (caches warm up *during* the sweep, which is the point);
* ``jobs{N}_s`` -- the same with ``jobs=N`` requested; the sweep engine's
  measured serial fallback decides per grid whether a pool actually
  spawns.

Methodology: every timing is the **median of** ``REPEATS`` runs after one
untimed warm-up (first-run effects: imports, allocator growth, the sweep
engine's one-off pool calibration).  Medians replaced the earlier
best-of-3 because sub-millisecond scenarios produced ``cache_speedup``
below 1.0 out of pure timer noise -- a single lucky/unlucky run no longer
decides the artifact.  Caches are cleared before each repeat; the code
fingerprint is re-derived outside the timed region (process-lifetime
state, not sweep work).

Run directly:  PYTHONPATH=src python benchmarks/bench_estimator.py
As pytest:     PYTHONPATH=src python -m pytest benchmarks/bench_estimator.py -q
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.core.cache import caching_disabled, clear_caches, code_version
from repro.obs import run_metadata
from repro.estimator.registry import available_scenarios, run_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_estimator.json"
REPEATS = 5
JOBS = 4
# Scenarios whose dominant cost is the estimator sweep (the decoder
# Monte-Carlo stack is benchmarked by perfbench/run.py).
SWEEP_SCENARIOS = ("fig11", "fig13", "fig14", "table2")


def _median_of(fn, repeats: int = REPEATS) -> float:
    times = []
    for attempt in range(repeats + 1):
        clear_caches()
        # Re-derive the code fingerprint outside the timed region: it is
        # process-lifetime state (clear_caches drops it), not part of the
        # sweep work this benchmark measures.
        code_version()
        start = time.perf_counter()
        fn()
        if attempt:  # attempt 0 is the untimed warm-up
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def time_scenario(name: str) -> dict:
    serial = _median_of(lambda: run_scenario(name, jobs=1))
    sharded = _median_of(lambda: run_scenario(name, jobs=JOBS))

    def uncached():
        with caching_disabled():
            run_scenario(name, jobs=1)

    uncached_serial = _median_of(uncached)
    return {
        "uncached_serial_s": uncached_serial,
        "serial_s": serial,
        f"jobs{JOBS}_s": sharded,
        "cache_speedup": uncached_serial / serial if serial else float("inf"),
        "repeats": REPEATS,
    }


def run_benchmarks() -> dict:
    results = {}
    for name in sorted(available_scenarios()):
        results[name] = time_scenario(name)
    return results


def test_estimator_bench():
    """Pytest entry point: the sweep scenarios must gain >= 3x from caching."""
    results = run_benchmarks()
    OUTPUT.write_text(
        json.dumps({**results, "meta": run_metadata()}, indent=2) + "\n"
    )
    print()
    for name, row in results.items():
        print(
            f"  {name:12s} uncached {row['uncached_serial_s'] * 1e3:8.1f} ms"
            f"  cached {row['serial_s'] * 1e3:8.1f} ms"
            f"  ({row['cache_speedup']:.1f}x)"
        )
    best = max(results[name]["cache_speedup"] for name in SWEEP_SCENARIOS)
    assert best >= 3.0, f"best sweep-scenario cache speedup only {best:.2f}x"


if __name__ == "__main__":
    test_estimator_bench()
    print(f"\nwrote {OUTPUT}")
