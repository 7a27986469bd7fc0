"""DEM and decoding-graph consistency checks.

The detector error model is the contract between a noisy circuit and its
decoders; the decoding graph is its matchable lowering.  A defect at
either level -- a detector no mechanism can ever fire, a mechanism that
flips only observables, a graph component that cannot reach the boundary
-- does not crash anything: it silently skews the decoded logical error
rate, which is exactly the failure mode a static verifier exists to catch
before any shot is sampled.

:func:`check_dem` and :func:`check_graph` are plain functions over a DEM /
graph so :func:`~repro.analysis.passes.verify_dem` and
:func:`~repro.analysis.passes.verify_graph` can run them without a
circuit in hand; the registered ``dem_consistency`` pass composes both on
top of a :class:`~repro.analysis.passes.PassContext`'s lazily-extracted
DEM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Set

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.passes import PassContext, register_pass

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.decoder.graph import DecodingGraph
    from repro.noise.dem import DetectorErrorModel

_PASS = "dem_consistency"


def check_dem(dem: "DetectorErrorModel") -> List[Diagnostic]:
    """Diagnostics for one detector error model."""
    diags: List[Diagnostic] = []
    if not dem.mechanisms:
        if dem.num_detectors:
            diags.append(Diagnostic(
                "warning", _PASS,
                f"DEM has {dem.num_detectors} detectors but no error "
                f"mechanisms (noiseless circuit?); nothing can ever fire",
            ))
        return diags
    covered: Set[int] = set()
    for k, mech in enumerate(dem.mechanisms):
        covered.update(mech.detectors)
        if not 0.0 <= mech.probability <= 1.0 or mech.probability != mech.probability:
            diags.append(Diagnostic(
                "error", _PASS,
                f"mechanism {k} has invalid probability {mech.probability}",
            ))
        elif mech.probability == 0.0:
            diags.append(Diagnostic(
                "warning", _PASS,
                f"mechanism {k} {mech.detectors} has zero probability "
                f"(dead weight; merged() would drop it)",
            ))
        elif mech.probability > 0.5:
            # An LLR edge weight log((1-p)/p) goes negative above 0.5,
            # inverting the matching metric; reweighted proposals
            # (DetectorErrorModel.reweighted) must cap at 0.5.
            diags.append(Diagnostic(
                "error", _PASS,
                f"mechanism {k} probability {mech.probability} exceeds 0.5 "
                f"(negative LLR weight; over-inflated reweighting?)",
            ))
        if not mech.detectors and mech.observables:
            diags.append(Diagnostic(
                "warning", _PASS,
                f"mechanism {k} flips only observables "
                f"{mech.observables}: an undetectable logical error "
                f"(p={mech.probability:.2e}) no decoder can correct",
            ))
        bad = [d for d in mech.detectors if not 0 <= d < dem.num_detectors]
        if bad:
            diags.append(Diagnostic(
                "error", _PASS,
                f"mechanism {k} references detector(s) {bad} outside "
                f"[0, {dem.num_detectors})",
            ))
    uncovered = sorted(set(range(dem.num_detectors)) - covered)
    if uncovered:
        head = ", ".join(str(d) for d in uncovered[:5])
        more = ", ..." if len(uncovered) > 5 else ""
        diags.append(Diagnostic(
            "error", _PASS,
            f"{len(uncovered)} of {dem.num_detectors} detectors are covered "
            f"by no error mechanism ({head}{more}); they can never fire, so "
            f"the noise model and the detector definitions disagree",
        ))
    return diags


def check_graph(graph: "DecodingGraph") -> List[Diagnostic]:
    """Diagnostics for one lowered decoding graph."""
    diags: List[Diagnostic] = []
    for edge in graph.edges:
        if not 0.0 < edge.probability < 1.0:
            diags.append(Diagnostic(
                "warning", _PASS,
                f"edge {edge.detectors} probability {edge.probability} is "
                f"outside (0, 1); its LLR weight is railed",
            ))
    table = graph.edge_table()
    n = graph.num_detectors
    linked = np.diff(table.indptr)[:n] > 0
    isolated = np.flatnonzero(~linked).tolist()
    if isolated:
        head = ", ".join(str(d) for d in isolated[:5])
        more = ", ..." if len(isolated) > 5 else ""
        diags.append(Diagnostic(
            "error", _PASS,
            f"{len(isolated)} of {graph.num_detectors} detectors are "
            f"isolated in the decoding graph ({head}{more}); a defect there "
            f"is unmatchable",
        ))
    # Boundary reachability: a connected component without a boundary edge
    # cannot match an odd number of defects.
    adjacency = sparse.coo_matrix(
        (np.ones(table.ea.size), (table.ea, table.eb)),
        shape=(table.node_count, table.node_count),
    )
    component = csgraph.connected_components(adjacency, directed=False)[1]
    unreachable = np.flatnonzero(linked & (component[:n] != component[n])).tolist()
    if unreachable:
        head = ", ".join(str(d) for d in unreachable[:5])
        more = ", ..." if len(unreachable) > 5 else ""
        diags.append(Diagnostic(
            "warning", _PASS,
            f"{len(unreachable)} detector(s) cannot reach the boundary "
            f"({head}{more}); odd defect sets in that component are "
            f"unmatchable",
        ))
    return diags


def dem_consistency(ctx: PassContext) -> Iterator[Diagnostic]:
    """Extract the DEM, lower the graph, and check both.

    Extraction/lowering failures surface as error diagnostics rather than
    propagating, so one broken stage never hides the structural passes'
    findings in the same report.
    """
    try:
        dem = ctx.dem()
    except Exception as exc:
        yield Diagnostic("error", _PASS, f"DEM extraction failed: {exc}")
        return
    yield from check_dem(dem)
    try:
        graph_diags = check_graph(ctx.graph())
    except Exception as exc:
        yield Diagnostic(
            "error", _PASS, f"decoding-graph lowering failed: {exc}"
        )
        return
    yield from graph_diags


register_pass("dem_consistency", dem_consistency)
