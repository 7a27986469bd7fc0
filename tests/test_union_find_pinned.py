"""Pinned union-find predictions: ``UnionFindDecoder.decode_packed`` per seed.

Union-find predictions are a pure per-row function of the syndrome:
batch composition, row order and memo state never change them.  These
sha256 digests pin the predicted observable flips of fixed sampled
shots, so a change to growth, peeling, grouping or the group memo that
moves any prediction shows up here.  Every digest is checked twice per
seed: once by a fresh decoder (cold memo) and once more by the same
decoder (warm memo, every group already stored).

The circuits and seeds are those of ``test_sample_stream_pinned.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.decoder.graph import DecodingGraph
from repro.decoder.union_find import UnionFindDecoder
from repro.noise.dem import extract_dem
from repro.sim.frame import FrameSimulator

from test_sample_stream_pinned import CIRCUITS, SEEDS, SHOTS

PINNED = {
    ("biased-X-d5-bias4", 7):
        "4d78f46ffe4dcfe04b898d2b724b0829dac10d493b001349f46fa2874d3f2dbd",
    ("biased-X-d5-bias4", 2024):
        "0f5c88e21720fbb64661f72908c0d73874f83933b16d3bbcb232b6278e0882e3",
    ("few_reps-d3-r4", 7):
        "d889862a97bb4f3f8cc2abeb0e972e712eda13363dfc4fdcf414d7e0b7026e09",
    ("few_reps-d3-r4", 2024):
        "04d95471cf050dfa7ca65258fda7288594ff0ceff100e4ae5a780aa70d46c008",
    ("memory-X-d3", 7):
        "95bb8021fc9ec277a66560cdda642eb058ea5a01e82bd007908dbf80e38610e7",
    ("memory-X-d3", 2024):
        "d94d53c5228b8bc345f7706be3fc0c6eeb63eaabd4b2054720f95fe79cdfda9c",
    ("memory-X-d5", 7):
        "937c23675892066a6a193528e24c767da350271475123a5181058846dba50f70",
    ("memory-X-d5", 2024):
        "9ec79b719515a688d3d157bd318c0a42e7b168249bbbc643f68b79582a6fd54e",
    ("memory-X-d7", 7):
        "0c119b86bd4596a1560b901b39f08f4f6726c3135458e295f9dfd884fe18fe86",
    ("memory-X-d7", 2024):
        "b11110a43e7bd0a3b3b40d64430ad07951c963496a818573a211501259ba0788",
    ("memory-Z-d11-r12", 7):
        "6eae7a7d4d60b8ffeb9a6258fcb84795a95a751c9cd5a421e1eb3dbab0593e50",
    ("memory-Z-d11-r12", 2024):
        "0b94ae0cb7333e3cdf3ec15094c7588a6030c214dce0d41c7f38883b7a1ce14b",
    ("memory-Z-d3", 7):
        "abc6fdc7cdf65e4b538f4c6398c6ae54d3820ebe1dec57dc5e1e8489a1b56ac6",
    ("memory-Z-d3", 2024):
        "2fa6995b6d446f7f82dc8a47072d25a7f6260ca087a61ce8165aff862b341bc2",
    ("memory-Z-d5", 7):
        "e36660c66bc37e79cc60aad7fafbcfc09de5944c9ff6dafdd381fcc5a6234dda",
    ("memory-Z-d5", 2024):
        "ff8c3286c76583f0916f0addd1b81197bbdeac9cb3519bf9a46c12ef276f9642",
    ("memory-Z-d7", 7):
        "c29743faa29a11603f8b49f5b0e440e7eafe25379cfcc81ed91162951822e407",
    ("memory-Z-d7", 2024):
        "4f9ccb64edd793800ee65c93a27d8d9d04cebb9cdef9c5d9cb3f0753c7f039ac",
    ("transversal_cnot-d3-X", 7):
        "d5757fc94c9aa85e7efddadbda191bb39690240da5ed59f79416c89628df842b",
    ("transversal_cnot-d3-X", 2024):
        "6ebfe19e1fc44da67e90dd1c7c50509c14fa2591c3c2372e2e15cef425f596e3",
    ("transversal_cnot-d3-Z", 7):
        "c1f0ed53207fb1d18c38cf9fe5313fc96b40bad223533d860ae687d4601ac4ed",
    ("transversal_cnot-d3-Z", 2024):
        "037973f2251a64120ae7c28d19e39ccf60ddacd71d22a3b4e56d26d24aaef58c",
}


def prediction_digest(decoder, packed, num_detectors):
    """sha256 of the predictions of one packed batch."""
    out = decoder.decode_packed(packed, num_detectors)
    digest = hashlib.sha256()
    digest.update(repr(out.shape).encode())
    digest.update(np.ascontiguousarray(out, dtype=np.uint8).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_union_find_predictions_are_pinned(name):
    circuit = CIRCUITS[name]()
    graph = DecodingGraph.from_dem(extract_dem(circuit))
    for seed in SEEDS:
        packed, _ = FrameSimulator(circuit).sample_packed(
            SHOTS, rng=np.random.default_rng(seed)
        )
        decoder = UnionFindDecoder(graph)
        cold = prediction_digest(decoder, packed, graph.num_detectors)
        warm = prediction_digest(decoder, packed, graph.num_detectors)
        assert cold == PINNED[name, seed], (seed, cold)
        assert warm == cold, seed
