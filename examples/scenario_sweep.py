"""Drive the estimation pipeline programmatically: registry + sweep engine.

Three levels of the same machinery:

1. run a registered scenario by name (what the CLI does);
2. declare a custom grid sweep over the factoring estimator, evaluated
   inline in grid order;
3. inspect the sub-model cache the sweeps share.

Run:  PYTHONPATH=src python examples/scenario_sweep.py
"""

from functools import partial

from repro.algorithms.factoring import estimate_factoring, FactoringParameters
from repro.core.params import ArchitectureConfig
from repro.estimator import cache_stats, grid, run_scenario, sweep


def _volume_point(point: dict, config: ArchitectureConfig) -> dict:
    """Mq-days at one (code distance, runway separation) grid point."""
    params = FactoringParameters(
        code_distance=point["code_distance"],
        runway_separation=point["runway_separation"],
    )
    est = estimate_factoring(params, config)
    return {
        "mq_days": est.physical_qubits * est.runtime_seconds / 86400.0 / 1e6,
        "factories": est.num_factories,
    }


def main() -> None:
    # 1. Registered scenario, exactly as `python -m repro fig13` runs it.
    result = run_scenario("fig13")
    print(f"scenario {result.scenario!r}: {len(result.records)} records")
    print(f"  first record: {result.records[0]}")

    # 2. A custom sweep the paper never plotted: distance x runway grid.
    records = sweep(
        partial(_volume_point, config=ArchitectureConfig()),
        grid(code_distance=(25, 27, 29), runway_separation=(48, 96, 192)),
    )
    print("\ncustom distance x runway sweep (Mq-days):")
    for r in records:
        print(
            f"  d={r['code_distance']}  r_sep={r['runway_separation']:4d}"
            f"  -> {r['mq_days']:7.1f} Mq-days, {r['factories']:3d} factories"
        )

    # 3. The sweeps above shared these memoized sub-model calls.
    print("\nsub-model cache (hits, misses, size):")
    for name, stats in sorted(cache_stats().items()):
        if stats[1]:
            print(f"  {name}: {stats}")


if __name__ == "__main__":
    main()
