"""Single-source operation classification tables for the circuit IR.

Every consumer of the IR -- :class:`repro.sim.circuit.Circuit` validation,
the frame sampler (:mod:`repro.sim.frame`), the compiled
bit-packed pipeline (:mod:`repro.sim.compiled`), the tableau and
state-vector simulators, and the noise layer (:mod:`repro.noise`) -- used
to string-match op names against private copies of these tuples, which is
exactly how a new op class drifts out of sync: ``Circuit.without_noise()``
keeps a channel the compiler rejects, or the compiler drops an annotation
the sampler still counts.  This module is now the only place an op name is
classified; everyone else imports from here.

Categories:

* ``CLIFFORD_1Q`` / ``CLIFFORD_2Q`` -- deterministic Clifford gates.
* ``NON_CLIFFORD`` -- state-vector-only gates.
* ``RESETS`` / ``MEASUREMENTS`` -- state preparation and readout.
* ``NOISE_1Q`` / ``NOISE_2Q`` -- stochastic channels.  ``PAULI_CHANNEL_1``
  and ``PAULI_CHANNEL_2`` are the biased generalizations of
  ``DEPOLARIZE1``/``DEPOLARIZE2``: their per-Pauli outcome probabilities
  live in ``Operation.args`` (3 and 15 entries, ordered like
  :data:`PAULI_1Q` / :data:`PAULI_2Q`) and ``Operation.arg`` holds the
  total firing probability.
* ``ANNOTATIONS`` -- no-op markers every simulator skips.  ``IDLE`` and
  ``FENCE`` (:data:`NOISE_MARKERS`) are placed by the clean experiment
  builders for :meth:`repro.noise.models.NoiseModel.apply` to consume:
  ``IDLE`` marks qubits idling through a moment (targets = the idle
  qubits), ``FENCE`` breaks a layer so noise insertion cannot coalesce
  across it.  A noise model replaces/strips them; simulators that meet
  them anyway treat them as ``TICK``.
"""

from __future__ import annotations

CLIFFORD_1Q = ("H", "S", "S_DAG", "X", "Y", "Z")
CLIFFORD_2Q = ("CX", "CZ", "SWAP")
NON_CLIFFORD = ("T", "T_DAG", "CCZ", "CCX")
RESETS = ("R", "RX")
MEASUREMENTS = ("M", "MX")
NOISE_1Q = ("X_ERROR", "Z_ERROR", "Y_ERROR", "DEPOLARIZE1", "PAULI_CHANNEL_1")
NOISE_2Q = ("DEPOLARIZE2", "PAULI_CHANNEL_2")
NOISE_MARKERS = ("IDLE", "FENCE")
ANNOTATIONS = ("DETECTOR", "OBSERVABLE_INCLUDE", "TICK") + NOISE_MARKERS

NOISE = NOISE_1Q + NOISE_2Q

ALL_NAMES = (
    CLIFFORD_1Q
    + CLIFFORD_2Q
    + NON_CLIFFORD
    + RESETS
    + MEASUREMENTS
    + NOISE
    + ANNOTATIONS
)

# Channels whose per-outcome probabilities ride in Operation.args; the
# required args length is the outcome count.
CHANNEL_ARGS = {"PAULI_CHANNEL_1": 3, "PAULI_CHANNEL_2": 15}

# Ops addressing qubit *pairs* (targets must come in twos).
PAIR_TARGETS = CLIFFORD_2Q + NOISE_2Q

# Single- and two-qubit Pauli tables as (x, z) flip pairs.  These order
# the outcomes of DEPOLARIZE1 / PAULI_CHANNEL_1 (X, Y, Z) and of
# DEPOLARIZE2 / PAULI_CHANNEL_2 (the 15 non-identity pairs, first qubit
# major), and they are what the DEM extraction enumerates.
PAULI_1Q = ((1, 0), (1, 1), (0, 1))  # X, Y, Z
PAULI_2Q = tuple(
    (a, b)
    for a in ((0, 0), (1, 0), (1, 1), (0, 1))
    for b in ((0, 0), (1, 0), (1, 1), (0, 1))
    if (a, b) != ((0, 0), (0, 0))
)

# 4-bit frame-flip code per PAULI_2Q outcome: bit 3 = X on the first
# qubit, bit 2 = Z on the first, bit 1 = X on the second, bit 0 = Z on
# the second -- the flip-code layout the sparse noise sampler
# (:func:`repro.sim.compiled.sample_channel`) draws outcomes in.
PAULI_2Q_CODES = tuple(
    (xa << 3) | (za << 2) | (xb << 1) | zb for (xa, za), (xb, zb) in PAULI_2Q
)

# 2-bit frame-flip code per PAULI_1Q outcome: bit 1 = X flip, bit 0 = Z.
PAULI_1Q_CODES = tuple((x << 1) | z for x, z in PAULI_1Q)

# -- compiled-pipeline classification ------------------------------------------

# Gate names dropped at compile time: Paulis commute through the frame
# trivially, TICK/IDLE/FENCE are no-op markers.  (DETECTOR and
# OBSERVABLE_INCLUDE are *not* dropped -- they lower to the sparse GF(2)
# record maps.)
DROPPED_BY_COMPILER = ("X", "Y", "Z", "TICK") + NOISE_MARKERS

# Canonical fused kinds (S_DAG folds into S, RX into R: identical frame
# semantics).
CANONICAL_FRAME_GATE = {"S_DAG": "S", "RX": "R"}

# Deterministic ops lowered to fused steps; anything not in this set, the
# noise set, or DROPPED_BY_COMPILER (e.g. non-Clifford T/CCZ) is rejected
# at compile time with a "frame simulator cannot run" error.
FUSABLE = ("H", "S", "CX", "CZ", "SWAP", "R", "M", "MX")
