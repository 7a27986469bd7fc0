"""Pinned sample stream: ``FrameSimulator.sample_packed`` output per seed.

The sampler's draw order is a contract: every noise op makes one
``sample_channel`` call on the generator, in op order, and a shot's
detector/observable bits follow from the drawn hits alone.  These sha256
digests pin the packed per-shot keys at fixed seeds, so a change to how
shots are drawn or assembled shows up here and must be re-pinned on
purpose.  The circuits cover memory experiments in both bases at d=3/5/7
(r=d) and d=11 r=12, a circuit with a round too few for periodic DEM
extraction (d=3 r=4), biased Pauli noise, and transversal-CNOT gadgets.
"""

import hashlib

import numpy as np
import pytest

from repro.noise.models import BiasedPauli
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit, transversal_cnot_experiment

SEEDS = (7, 2024)

CIRCUITS = {
    "memory-Z-d3": lambda: memory_circuit(3, 3, 2e-3),
    "memory-X-d3": lambda: memory_circuit(3, 3, 2e-3, basis="X"),
    "memory-Z-d5": lambda: memory_circuit(5, 5, 2e-3),
    "memory-X-d5": lambda: memory_circuit(5, 5, 2e-3, basis="X"),
    "memory-Z-d7": lambda: memory_circuit(7, 7, 1e-3),
    "memory-X-d7": lambda: memory_circuit(7, 7, 1e-3, basis="X"),
    "memory-Z-d11-r12": lambda: memory_circuit(11, 12, 5e-4),
    "few_reps-d3-r4": lambda: memory_circuit(3, 4, 2e-3),
    "biased-X-d5-bias4": lambda: memory_circuit(
        5, 5, 4e-3, basis="X", noise=BiasedPauli(4e-3, bias=4)
    ),
    "transversal_cnot-d3-Z": lambda: transversal_cnot_experiment(
        3, 4, 2e-3, [2], basis="Z"
    ).circuit,
    "transversal_cnot-d3-X": lambda: transversal_cnot_experiment(
        3, 4, 2e-3, [2], basis="X"
    ).circuit,
}

# 1000 shots: not a multiple of 8 or 64, so pad bits are exercised too.
SHOTS = 1000

PINNED = {
    ("biased-X-d5-bias4", 7):
        "a2ab4460c2abba012c7df3757ef96938cef87892c4811b81e5eb9a027f588ac8",
    ("biased-X-d5-bias4", 2024):
        "50dae45bdc720a656baceaa1e770f713b4bbb774a9f59d10abbdf441177d729a",
    ("few_reps-d3-r4", 7):
        "86aea5c12b0e5b44fef09d69d073648242f17209b6a102965e5db01041234c7f",
    ("few_reps-d3-r4", 2024):
        "0304aa992c0951a5ad17ba0d371fcf07bdfc79ba068832684d78de7347ed2192",
    ("memory-X-d3", 7):
        "34bcba402e3c2ca04b4e622a54577ffb55ad566d5e51725e83b61c5b0bfbbcdf",
    ("memory-X-d3", 2024):
        "4df10653a5c824caa055efe2def0a73d5eb724f186646c7fc7cfe04bbac06461",
    ("memory-X-d5", 7):
        "e00281e69c051a1fe4e5f3f0997b2f6fd7ecd5395c467c1159d0b197aa77cf8f",
    ("memory-X-d5", 2024):
        "e6d9deca036d54cfeac99001a301f34bd3c4d19b436808efde7f17b8191dd543",
    ("memory-X-d7", 7):
        "963f70cae1fd546ad779744d12e5876e3a88e6688f39eace4b93db61f849f358",
    ("memory-X-d7", 2024):
        "2438b2c19a30266ef0544dcfd9775ee449378d80606424605b6ccf35c69d16ac",
    ("memory-Z-d11-r12", 7):
        "7549385af1b94e45f51915eb4d4d30e4cae5191c9db9c52b91876e21a228dcd9",
    ("memory-Z-d11-r12", 2024):
        "30a32cc0d5b5c89ea1ddfebc337012583919ee2a454bdf6acf299abf1c0f2990",
    ("memory-Z-d3", 7):
        "41324f482ed7237c8247cd1fc844e7f6e4400a9075ba02488ed7a235a5d8ae31",
    ("memory-Z-d3", 2024):
        "fbc52ef19a8302f16af3a56f6a31633a20c2229704c34221a238f76c3cb5782b",
    ("memory-Z-d5", 7):
        "512898c3c3c0f53f05a15ecc79e8cd00132338ae4baef110f8db62d06baee1d5",
    ("memory-Z-d5", 2024):
        "7fef279ecef35d0efa194f731db9906b2594c59815b553e0fff0e220b180c8dd",
    ("memory-Z-d7", 7):
        "89bcca7be8c3697cb36c74ff6bd992bff9f58e867d8ef4637a433d9c9963b6ed",
    ("memory-Z-d7", 2024):
        "945b0d77fd622c421f0c5d21f1eb76c7c36cfd7b40c8296c57d79bf235292e66",
    ("transversal_cnot-d3-X", 7):
        "e0c7e02ea54b52fc84bd2dfdaf2c21252f014b20f7ef81f2b032afeaa15133d1",
    ("transversal_cnot-d3-X", 2024):
        "93c94dc87755ec4224bdcde40ae9fcd561b42f0f486f68a406753d326d56e467",
    ("transversal_cnot-d3-Z", 7):
        "3a7f8e69639907ec458c27a55fe6e4302631c81fd8132fc0374f182311a50ee3",
    ("transversal_cnot-d3-Z", 2024):
        "c081c1bb544828b14981351fbdee21a4085a5f627fb8a3b01bc2e0bef98eb2ab",
}


def stream_digest(circuit, shots, seed):
    """sha256 of the packed detector and observable keys of one seed."""
    det, obs = FrameSimulator(circuit).sample_packed(
        shots, rng=np.random.default_rng(seed)
    )
    digest = hashlib.sha256()
    for keys in (det, obs):
        digest.update(repr(keys.shape).encode())
        digest.update(np.ascontiguousarray(keys).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_sample_stream_is_pinned(name):
    circuit = CIRCUITS[name]()
    for seed in SEEDS:
        assert stream_digest(circuit, SHOTS, seed) == PINNED[name, seed], seed
