"""Pluggable noise-model layer and detector-error-model extraction.

* :mod:`repro.noise.models` -- declarative circuit-level noise models
  applied as pure ``Circuit -> Circuit`` transformations, selected through
  a string registry (``uniform_depolarizing``, ``biased_pauli``,
  ``movement_aware``).
* :mod:`repro.noise.dem` -- detector-error-model extraction: every
  elementary error mechanism of a noisy circuit is propagated to the
  detectors/observables it flips, and the sampler's fault table is built
  from the same propagation.  ``DecodingGraph.from_dem`` lowers the merged
  model to a log-likelihood-ratio-weighted decoding graph, and
  ``DecodingGraph.from_dem_uniform`` keeps the uniform-weight hand-built
  baseline for verification.
"""

from repro.noise.dem import (
    DetectorErrorModel,
    ErrorMechanism,
    extract_dem,
)
from repro.noise.models import (
    BiasedPauli,
    MovementAware,
    NoiseModel,
    UniformDepolarizing,
    available_noise_models,
    make_noise_model,
    register_noise_model,
    resolve_noise_model,
    transversal_move_schedule,
)

__all__ = [
    "BiasedPauli",
    "DetectorErrorModel",
    "ErrorMechanism",
    "MovementAware",
    "NoiseModel",
    "UniformDepolarizing",
    "available_noise_models",
    "extract_dem",
    "make_noise_model",
    "register_noise_model",
    "resolve_noise_model",
    "transversal_move_schedule",
]
