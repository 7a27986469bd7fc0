"""Literal failure counts of every paired decoder comparison.

``paired_failure_counts`` samples a circuit once and decodes the shared
shots with several decoders.  The counts below pin that path on the
surfaces that use it: the three biased-noise points of the
``biased_paired`` benchmark workload, the Fig. 13(a) decoder trade-off
and the ``memory_biased`` scenario.  A change to how the shots travel
from the sampler to the decoders must leave every count as it is.
"""

import numpy as np
import pytest

from repro.decoder.analysis import paired_failure_counts
from repro.estimator import run_scenario
from repro.experiments.fig13 import decoder_tradeoff_monte_carlo
from repro.noise.models import BiasedPauli
from repro.sim.memory import memory_circuit


def _spawned_child():
    """A spawned child sequence, the seed form the benchmark passes."""
    return np.random.SeedSequence(2026).spawn(2)[1]


# (bias, seed) -> (mwpm, mwpm_uniform) failures of 2048 shared shots.
BIASED = {
    (1.0, "int"): (21, 32),
    (4.0, "int"): (19, 32),
    (16.0, "int"): (19, 25),
    (1.0, "child"): (13, 34),
    (4.0, "child"): (30, 36),
    (16.0, "child"): (32, 38),
}


@pytest.mark.parametrize(
    "bias, seed_kind", sorted(BIASED), ids=[f"bias{b:g}-{s}" for b, s in sorted(BIASED)]
)
def test_biased_paired_counts(bias, seed_kind):
    circuit = memory_circuit(
        5, 5, 4e-3, basis="X", noise=BiasedPauli(4e-3, bias=bias)
    )
    seed = 3 if seed_kind == "int" else _spawned_child()
    counts = paired_failure_counts(
        circuit,
        {"mwpm": "mwpm", "mwpm_uniform": "mwpm_uniform"},
        2048,
        seed=seed,
    )
    assert (counts["mwpm"], counts["mwpm_uniform"]) == BIASED[bias, seed_kind]


def test_decoder_tradeoff_counts():
    out = decoder_tradeoff_monte_carlo(
        distance=3, rounds=3, p=0.004, shots=1500, seed=41
    )
    assert {name: (r.shots, r.failures, r.shards) for name, r in out.items()} == {
        "mwpm": (1500, 34, 2),
        "mwpm_uniform": (1500, 46, 2),
        "union_find": (1500, 61, 2),
    }


def test_memory_biased_records():
    records = run_scenario("memory_biased").records
    assert [
        (r["bias"], r["shots"], r["failures_weighted"], r["failures_uniform"])
        for r in records
    ] == [(1.0, 400, 6, 7), (4.0, 400, 6, 8), (16.0, 400, 7, 6)]
    for r in records:
        assert r["rate_weighted"] == r["failures_weighted"] / r["shots"]
        assert r["rate_uniform"] == r["failures_uniform"] / r["shots"]
