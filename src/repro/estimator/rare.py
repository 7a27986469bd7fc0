"""Rare-event Monte Carlo: importance-sampled DEM shots.

At the logical error rates the paper's larger code distances reach, brute
force is hopeless: a point at ``p_L ~ 1e-9`` needs ``~1e11`` shots for a
10% relative error.  This module samples shots *directly from the
detector error model* under a reweighted proposal so that failures are
common, then corrects each shot with a likelihood ratio so the estimate
is still taken under the original model.

**Estimator.**  The DEM is a product of independent Bernoulli mechanisms
``k`` with probabilities ``p_k``; a shot is a firing subset ``F``, its
detector/observable symptoms the XOR of the fired mechanisms' symptoms.
Sampling firings from a proposal ``q_k`` instead and weighting each shot
by the likelihood ratio

    w(F) = prod_{k in F} (p_k / q_k) * prod_{k not in F} ((1-p_k)/(1-q_k))

makes ``E_q[w * fail]  =  E_p[fail]  =  p_L`` exactly: the weighted
failure mean is an unbiased estimate of the failure probability under the
original model, for *any* proposal with ``q_k > 0`` wherever ``p_k > 0``.
The sampler accumulates ``log w`` as a per-shot sum (one base constant
plus a ``delta_k`` per fired mechanism) for numerical stability.

**Shots.**  The sampler is a draw plan over the original model's symptom
table (:meth:`~repro.noise.dem.DetectorErrorModel.fault_table`), like
the circuit sampler's plan over the circuit's fault table: one plan
entry per group of mechanisms sharing a proposal probability, drawn by
:func:`~repro.sim.compiled.draw_hits` and XORed into the engine's
defect lists by :func:`~repro.sim.compiled.symptom_lists`.

**Proposal.**  :meth:`repro.noise.dem.DetectorErrorModel.reweighted`
inflates every ``p_k`` uniformly, capped at 0.5.  Uniform inflation ``s``
tilts the firing-count distribution upward: a failure needs roughly
``k_min ~ ceil(d/2)`` specific mechanisms to fire, so its probability
under the proposal grows like ``s**k_min`` while the weight spread only
costs ``exp(T (s-1)^2 / s)`` with ``T = sum_k p_k``, giving a variance
gain of order ``s**k_min * exp(-T (s-1)^2 / s)``.
:func:`suggested_inflation` maximizes that expression.

**Diagnostics.**  A bad proposal does not crash -- it silently biases or
destabilizes the estimate -- so construction is always gated: the
proposal runs through :func:`repro.analysis.verify_dem` (probabilities
in range, no mechanism above 0.5) and the (original, proposal) pair
through :func:`repro.analysis.check_reweight` (topology preserved,
support preserved).  At run time, watch ``EngineResult.ess``: a Kish effective
sample size well below ``0.1 * shots`` means a few heavy weights dominate
and the inflation should come down.

The sampler plugs into :class:`repro.decoder.engine.DecodingEngine` as
its ``sampler`` argument (see :func:`rare_engine`): shards draw shots
as defect lists, the decoder decodes them against the
*original* DEM, and the per-shot weights ride home with each shard's
sufficient statistics, preserving worker-count invariance.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple, Union

import numpy as np

from repro.analysis.diagnostics import DiagnosticReport, VerificationError
from repro.analysis.passes import verify_dem
from repro.analysis.reweight_passes import check_reweight
from repro.noise.dem import DetectorErrorModel
from repro.obs import metrics as _metrics
from repro.sim.compiled import NO_CDF, DefectBatch, draw_hits, symptom_lists

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.decoder.base import Decoder
    from repro.decoder.engine import DecodingEngine
    from repro.sim.circuit import Circuit

_RARE_SHOTS = _metrics.counter(
    "repro_rare_shots_total",
    "Shots drawn from a reweighted DEM proposal by ImportanceSampler.",
)
_RARE_FIRINGS = _metrics.counter(
    "repro_rare_firings_total",
    "Mechanism firings sampled by ImportanceSampler.",
)


class ImportanceSampler:
    """Draws weighted DEM shots as the engine's defect lists.

    Args:
        original: the circuit's DEM; weights (and the decoder) refer to
            this model.
        proposal: the reweighted DEM to *sample* from, typically
            ``original.reweighted(inflation)``.

    Construction is gated through :func:`verify_dem` on the proposal plus
    :func:`check_reweight` on the pair, raising
    :class:`~repro.analysis.diagnostics.VerificationError` on any
    error-severity finding.  The sampler keeps a draw plan (the
    mechanisms grouped by proposal probability), the original model's
    symptom table (:meth:`DetectorErrorModel.fault_table`) and the
    per-mechanism log-likelihood terms: plain numpy arrays that pickle
    cheaply into worker pools.
    """

    def __init__(
        self,
        original: DetectorErrorModel,
        proposal: Optional[DetectorErrorModel] = None,
        *,
        inflation: Optional[float] = None,
    ) -> None:
        if proposal is None:
            if inflation is None:
                raise ValueError("provide either a proposal DEM or an inflation")
            proposal = original.reweighted(inflation)
        elif inflation is not None:
            raise ValueError("provide a proposal DEM or an inflation, not both")
        verify_dem(proposal)
        report = DiagnosticReport(tuple(check_reweight(original, proposal)))
        if not report.ok("error"):
            raise VerificationError(report, "error")
        # The uniform inflation this sampler was built from; None when an
        # arbitrary proposal DEM was handed over instead.
        self.inflation = inflation
        self.num_detectors = original.num_detectors
        self.num_observables = original.num_observables
        self._table = original.fault_table()

        p = self._table.probabilities
        q = np.array(
            [m.probability for m in proposal.mechanisms], dtype=np.float64
        )
        # Draw plan: mechanisms grouped by equal proposal probability (a
        # uniformly inflated DEM has only a few dozen distinct values), in
        # increasing probability order; each group's (members, shots)
        # firing grid is one sparse draw.
        self._plan = [
            (float(value), NO_CDF, np.flatnonzero(q == value))
            for value in np.unique(q)
            if value > 0
        ]
        # log w(F) = base + sum_{k in F} delta_k:
        #   base    = sum_k log((1-p_k)/(1-q_k))        (nothing fires)
        #   delta_k = log(p_k/q_k) - log((1-p_k)/(1-q_k))  (k fires)
        # Mechanisms with q_k = 0 never fire (p_k = 0 too, or verification
        # rejected the pair), so their delta is irrelevant; keep it 0.
        not_term = np.log1p(-p) - np.log1p(-q)
        self._base_llr = float(not_term.sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            fire_term = np.log(p) - np.log(q)
        delta = np.where(q > 0, fire_term - not_term, 0.0)
        self._delta_llr = np.nan_to_num(delta, nan=0.0, neginf=-np.inf)

    def sample_defects(self, shots: int, rng: np.random.Generator) -> DefectBatch:
        """Draw ``shots`` weighted shots from the proposal model.

        Firings come from :func:`~repro.sim.compiled.draw_hits` over the
        draw plan (one sparse draw per probability group, so the work
        scales with the expected firings and a shard's shots depend only
        on its seed); their symptoms from
        :func:`~repro.sim.compiled.symptom_lists`, the circuit sampler's
        kernel.  The batch's ``log_weights`` are the per-shot log
        likelihood ratios under the original model.
        """
        row, shot = draw_hits(rng, self._plan, shots)
        batch = symptom_lists(
            self._table, self.num_detectors, self.num_observables,
            row, shot, shots,
        )
        llr = self._base_llr + np.bincount(
            shot, weights=self._delta_llr[row], minlength=shots
        )
        if _metrics.enabled():
            _RARE_SHOTS.inc(shots)
            _RARE_FIRINGS.inc(row.size)
        return batch._replace(log_weights=llr)

    def sample_weighted(
        self, shots: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`sample_defects` as bit-packed per-shot rows.

        Returns:
            (det_keys, obs_keys, log_weights): bit-packed detector and
            observable key arrays of shapes ``(shots, ceil(nd/8))`` /
            ``(shots, ceil(no/8))`` plus the per-shot log likelihood
            ratio under the original model.
        """
        batch = self.sample_defects(shots, rng)
        return (*batch.packed(self.num_detectors), batch.log_weights)


def suggested_inflation(
    dem: DetectorErrorModel, min_failure_weight: int
) -> float:
    """Inflation factor maximizing the estimated variance gain.

    With total mechanism mass ``T = sum_k p_k`` and a minimum failure
    weight ``k`` (mechanism firings needed for a logical failure, roughly
    ``ceil(d/2)`` for a distance-``d`` memory), uniform inflation ``s``
    improves the failure-estimate variance by about
    ``s**k * exp(-T (s-1)^2 / s)``; the maximizer solves
    ``k = T (s - 1/s)``, i.e. ``s = (k + sqrt(k^2 + 4 T^2)) / (2 T)``.
    Clamped to at least 1 (never *deflate*).  The cap at 0.5 in
    :meth:`~repro.noise.dem.DetectorErrorModel.reweighted` still applies
    on top, so a large suggestion is safe.
    """
    if min_failure_weight < 1:
        raise ValueError("min_failure_weight must be >= 1")
    total = sum(m.probability for m in dem.mechanisms)
    if total <= 0:
        return 1.0
    k = float(min_failure_weight)
    s = (k + math.sqrt(k * k + 4.0 * total * total)) / (2.0 * total)
    return max(s, 1.0)


def rare_engine(
    circuit: "Circuit",
    decoder: Union[str, "Decoder"] = "mwpm",
    *,
    inflation: float = 0.0,
    min_failure_weight: Optional[int] = None,
    observable: Optional[int] = 0,
    shard_shots: int = 1024,
    workers: int = 1,
) -> "DecodingEngine":
    """Build an importance-sampled :class:`DecodingEngine` for a circuit.

    Extracts the circuit's DEM once, builds the decoder against the
    *original* model, and wires an :class:`ImportanceSampler` over the
    reweighted proposal into the engine.  ``engine.run(...)`` /
    ``run_until_rel_error(...)`` then return weighted
    :class:`~repro.decoder.engine.EngineResult`\\ s whose
    ``weighted_rate`` estimates the logical failure probability under the
    original model.

    Args:
        circuit: the noisy circuit (its DEM is the sampled model; the
            circuit itself is never simulated).
        decoder: registry name or built decoder instance.
        inflation: uniform proposal inflation; ``0`` (default) picks
            :func:`suggested_inflation` from the DEM and
            ``min_failure_weight``.
        min_failure_weight: minimum mechanism firings for a logical
            failure, used by the default inflation; defaults to
            ``max(ceil(sqrt(num_detectors) / 2), 2)`` -- a deliberately
            conservative floor when the caller does not know the code
            distance.
        observable / shard_shots / workers: as for
            :class:`~repro.decoder.engine.DecodingEngine`.
    """
    from repro.decoder.engine import DecodingEngine, make_decoder
    from repro.noise.dem import extract_dem

    dem = extract_dem(circuit)
    if inflation == 0.0:
        if min_failure_weight is None:
            min_failure_weight = max(
                int(math.ceil(math.sqrt(max(circuit.num_detectors, 1)) / 2.0)),
                2,
            )
        inflation = suggested_inflation(dem, min_failure_weight)
    sampler = ImportanceSampler(dem, inflation=inflation)
    if isinstance(decoder, str):
        decoder = make_decoder(decoder, dem)
    return DecodingEngine(
        circuit,
        decoder,
        observable=observable,
        shard_shots=shard_shots,
        workers=workers,
        sampler=sampler,
    )
