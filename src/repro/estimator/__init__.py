"""Unified estimation pipeline: sweeps, caching, and the scenario registry.

The paper's evaluation is a family of parameter sweeps over one expensive
estimator.  This subsystem gives every figure/table driver one engine:

* :mod:`repro.estimator.sweep` -- declarative grid sweeps (named axes,
  cartesian or zipped) evaluated inline in grid order, branch-and-bound
  pruning for optimizers, and CI-width-driven adaptive shot budgeting
  (:func:`adaptive_shots`).
* :mod:`repro.estimator.rare` -- rare-event Monte Carlo: importance
  sampling of DEM shots from a reweighted proposal with per-shot
  likelihood-ratio weights (:class:`ImportanceSampler`,
  :func:`rare_engine`, :func:`suggested_inflation`).
* :mod:`repro.estimator.registry` -- a string-keyed registry of
  :class:`Scenario` objects returning structured records, driving the
  ``python -m repro`` CLI so new scenarios need zero CLI edits.
* :mod:`repro.estimator.serialize` -- the one JSON serialization shared by
  the CLI, the HTTP service and the persistent store, so every surface
  emits byte-identical documents.
* :mod:`repro.core.cache` (re-exported here) -- memoization of pure
  sub-model calls keyed on frozen dataclass inputs, shared by every sweep,
  plus the :func:`code_version` fingerprint the result store keys on.
"""

from repro.core.cache import (
    cache_stats,
    caching_disabled,
    clear_caches,
    code_version,
    memoized,
)
from repro.estimator.registry import (
    Scenario,
    ScenarioResult,
    UnknownParamsError,
    all_sections,
    available_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
)
from repro.estimator.serialize import (
    dumps_results,
    finite,
    parse_override_value,
)
from repro.estimator.rare import (
    ImportanceSampler,
    rare_engine,
    suggested_inflation,
)
from repro.estimator.sweep import (
    Axis,
    GridSpec,
    MinimizeResult,
    adaptive_shots,
    grid,
    minimize,
    sweep,
    zipped,
)

__all__ = [
    "Axis",
    "GridSpec",
    "ImportanceSampler",
    "MinimizeResult",
    "Scenario",
    "ScenarioResult",
    "UnknownParamsError",
    "adaptive_shots",
    "all_sections",
    "available_scenarios",
    "cache_stats",
    "caching_disabled",
    "clear_caches",
    "code_version",
    "dumps_results",
    "finite",
    "get_scenario",
    "grid",
    "memoized",
    "minimize",
    "parse_override_value",
    "rare_engine",
    "register_scenario",
    "run_scenario",
    "suggested_inflation",
    "sweep",
    "zipped",
]
