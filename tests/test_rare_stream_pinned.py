"""Pinned importance-sampled stream: ``ImportanceSampler.sample_weighted`` per seed.

The rare-event sampler's draw order is a contract: its mechanisms are
grouped by proposal probability, each group draws its firings with one
``sample_channel`` call, in increasing probability order, and a shot's
symptoms and log-weight follow from the drawn firings alone.  These sha256
digests pin the packed detector and observable keys and the log-weight
bytes at fixed seeds, so a change to how weighted shots are drawn or
assembled shows up here and must be re-pinned on purpose.  The models
cover memory experiments at d=5/7 (r=5) under the default inflation of
:func:`~repro.estimator.rare.rare_engine`, biased Pauli noise in the X
basis, a transversal-CNOT model (hyperedges), and hand-built models with
no observables and with a zero-probability mechanism.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.estimator.rare import ImportanceSampler, suggested_inflation
from repro.noise.dem import DetectorErrorModel, ErrorMechanism, extract_dem
from repro.noise.models import BiasedPauli
from repro.sim.memory import memory_circuit, transversal_cnot_experiment

SEEDS = (7, 2024)


def _default_sampler(circuit):
    """The sampler ``rare_engine(circuit)`` builds, without its decoder."""
    dem = extract_dem(circuit)
    weight = max(
        int(math.ceil(math.sqrt(max(circuit.num_detectors, 1)) / 2.0)), 2
    )
    return ImportanceSampler(dem, inflation=suggested_inflation(dem, weight))


def _hand_built(mechanisms, num_detectors, num_observables):
    return DetectorErrorModel(
        [ErrorMechanism(p, dets, obs) for p, dets, obs in mechanisms],
        num_detectors,
        num_observables,
    )


SAMPLERS = {
    "memory-d5-r5-p1e-3": lambda: _default_sampler(memory_circuit(5, 5, 1e-3)),
    "memory-d5-r5-p5e-4": lambda: _default_sampler(memory_circuit(5, 5, 5e-4)),
    "memory-d7-r5-p1e-3": lambda: _default_sampler(memory_circuit(7, 5, 1e-3)),
    "memory-d7-r5-p5e-4": lambda: _default_sampler(memory_circuit(7, 5, 5e-4)),
    "biased-X-d5-bias4": lambda: _default_sampler(
        memory_circuit(5, 5, 1e-3, basis="X", noise=BiasedPauli(1e-3, bias=4))
    ),
    "transversal_cnot-d3-Z": lambda: _default_sampler(
        transversal_cnot_experiment(3, 4, 2e-3, [2], basis="Z").circuit
    ),
    "no-observables": lambda: ImportanceSampler(
        _hand_built(
            [(0.01, (0,), ()), (0.02, (0, 1), ()), (0.005, (1, 2), ()),
             (0.01, (2, 3), ()), (0.004, (3, 4, 5), ()), (0.01, (5, 6), ()),
             (0.02, (6, 7), ()), (0.01, (7, 8), ()), (0.005, (8, 9), ()),
             (0.01, (9,), ())],
            num_detectors=10,
            num_observables=0,
        ),
        inflation=4.0,
    ),
    "zero-probability": lambda: ImportanceSampler(
        _hand_built(
            [(0.01, (0,), (0,)), (0.0, (1,), ()), (0.003, (1, 2), (1,)),
             (0.02, (2,), ())],
            num_detectors=3,
            num_observables=2,
        ),
        inflation=6.0,
    ),
}

# 1000 shots: not a multiple of 8 or 64, so pad bits are exercised too.
SHOTS = 1000

PINNED = {
    ("biased-X-d5-bias4", 7):
        "94bf970126d1984e15e94fb4206bf876d86fe671a7ff17901d9e91853db41887",
    ("biased-X-d5-bias4", 2024):
        "d9985fb5ef85abb18770d2b1b2e13d2a22d4f8a5505f49ff87914d512b03d994",
    ("memory-d5-r5-p1e-3", 7):
        "914bbb661be97ab5bf14ed613cb264214cb263439d30857dfee1a4b2c4e079d6",
    ("memory-d5-r5-p1e-3", 2024):
        "2fd51ce27797a5888c07939179e8574c869ecb3a24813f2b3cac36693e2ddb67",
    ("memory-d5-r5-p5e-4", 7):
        "3c4ba0df36cc425d9311745fca80d55123641688df5428b7b2dab4b1dc1ad502",
    ("memory-d5-r5-p5e-4", 2024):
        "6568f5683a927f55aab5d9d8a23ba642142d914f49c1158bc4c7f6223ba46d16",
    ("memory-d7-r5-p1e-3", 7):
        "8e5c1bacaa1ffad9af3d987f977b5b06250d175c5c000f794d26d9005fd388c1",
    ("memory-d7-r5-p1e-3", 2024):
        "d1faca797f39000839e1739a827371576e2f223bf88f3e318e02ec936bd584c0",
    ("memory-d7-r5-p5e-4", 7):
        "c34c0ff0634d36965b40aa786c054637b03dff742fbb9fc60c2490d602f2c125",
    ("memory-d7-r5-p5e-4", 2024):
        "5739ea7076aed029d25018be9b6fb1708a6e28525ecac9d5a208684cc329094d",
    ("no-observables", 7):
        "b0df3e594174645845ee7daae5dd7ee508cbfc228c3e41548d1711fb680da806",
    ("no-observables", 2024):
        "ee8f24414fc9dfa31a0c8504aebf1c789d5d43eb73e25302229ee97ad5e6264f",
    ("transversal_cnot-d3-Z", 7):
        "c4aa0d717e9e8edcea330c01e9ce9dcd9f445bfc6f21889a3c86df42f9f4d429",
    ("transversal_cnot-d3-Z", 2024):
        "72485573b5843ff02461eb2d037faf328565a35f1529909bbb9a709fdb40cd92",
    ("zero-probability", 7):
        "f2094a06646ff64cdf88db3cef25b2dcdf7adfb8bc8acb22bec22201e26ce7d8",
    ("zero-probability", 2024):
        "323a6960e42d7726d64a022503c45be16d225c93446bc1569e29c18e17c3033e",
}


def stream_digest(sampler, shots, seed):
    """sha256 of the detector keys, observable keys and log-weights of one seed."""
    det, obs, llr = sampler.sample_weighted(shots, np.random.default_rng(seed))
    digest = hashlib.sha256()
    for array in (det, obs, llr):
        digest.update(repr((array.shape, array.dtype.str)).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_rare_stream_is_pinned(name):
    sampler = SAMPLERS[name]()
    for seed in SEEDS:
        assert stream_digest(sampler, SHOTS, seed) == PINNED[name, seed], seed
