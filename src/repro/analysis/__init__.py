"""Static analysis: circuit-IR verifier, diagnostics passes, source lint.

The compilation pipeline (clean ``Circuit`` IR -> noise transform -> DEM
extraction -> ``DecodingGraph`` -> compiled packed programs) enforces its
invariants here, *before* any shot is sampled: a silent invariant break in
that pipeline shows up as a wrong logical error rate, not a crash.

Public surface:

* :func:`verify` -- run diagnostics passes over a circuit, collecting a
  :class:`DiagnosticReport`; raises :class:`VerificationError` at the
  ``fail_on`` threshold after all passes complete.
* :func:`verify_dem` / :func:`verify_graph` -- the same checks for a
  detector error model / decoding graph in isolation, e.g. the output
  of :func:`repro.noise.dem.extract_dem` or
  :meth:`repro.decoder.graph.DecodingGraph.from_dem` (the importance
  sampler gates every proposal model through :func:`verify_dem`).
* pass registry -- :func:`register_pass`, :func:`available_passes`,
  :func:`get_pass`, mirroring the decoder/noise/scenario registries.
* :func:`lint_source` -- AST-level lint of the package sources (global
  RNG use, worker-visible mutable module state).
* ``python -m repro lint`` -- the CLI driver over all of the above.
"""

from repro.analysis.diagnostics import (
    SEVERITIES,
    Diagnostic,
    DiagnosticReport,
    VerificationError,
    severity_rank,
)
from repro.analysis.passes import (
    STRUCTURAL_PASSES,
    Pass,
    PassContext,
    available_passes,
    get_pass,
    register_pass,
    run_passes,
    verify,
    verify_dem,
    verify_graph,
)
from repro.analysis import (  # noqa: F401  (self-registration)
    circuit_passes,
    dem_passes,
    periodic_passes,
    registry_passes,
    reweight_passes,
)
from repro.analysis.dem_passes import check_dem, check_graph
from repro.analysis.periodic_passes import check_dem_periodicity
from repro.analysis.reweight_passes import check_reweight
from repro.analysis.source_lint import lint_file, lint_source

__all__ = [
    "SEVERITIES",
    "STRUCTURAL_PASSES",
    "Diagnostic",
    "DiagnosticReport",
    "Pass",
    "PassContext",
    "VerificationError",
    "available_passes",
    "check_dem",
    "check_dem_periodicity",
    "check_graph",
    "check_reweight",
    "get_pass",
    "lint_file",
    "lint_source",
    "register_pass",
    "run_passes",
    "severity_rank",
    "verify",
    "verify_dem",
    "verify_graph",
]
