"""Pinned MWPM predictions: ``decode_packed`` per decoder, traffic and seed.

MWPM predictions are a pure per-row function of the syndrome: batch
composition, row order and the cluster memo never change them.  These
sha256 digests pin the predicted observable flips of fixed shots, so a
change to the cluster split, the memo, the matcher batches or the
composition of cluster masks that moves any prediction shows up here.
Every digest is checked three times: by a fresh decoder (cold memo), by
the same decoder again (warm memo), and by a fresh decoder whose memo
limit is so small that the memo is dropped over and over mid-batch.

The traffic is the circuits and seeds of ``test_sample_stream_pinned.py``
for ``mwpm`` and ``mwpm_uniform`` (biased X-basis d=5 among them),
importance-sampled shots at d=5 and d=7 as ``rare_engine`` draws them,
and the sequential decoder on transversal-CNOT circuits whose control
graphs carry more than 62 observables (object-dtype masks).
"""

import numpy as np
import pytest

from repro.decoder import mwpm
from repro.decoder.engine import make_decoder
from repro.decoder.graph import INT64_OBSERVABLES
from repro.noise.dem import extract_dem
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit, transversal_cnot_experiment

from test_rare_stream_pinned import _default_sampler
from test_sample_stream_pinned import CIRCUITS, SEEDS, SHOTS
from test_union_find_pinned import prediction_digest

# Memo limit that forces drops mid-batch on every traffic below.
TINY_LIMIT = 8

PINNED = {
    ('biased-X-d5-bias4', 'mwpm', 7):
        '60ef91492bc5079788ae329c247ee919b685d00f49dcadbfdf685da5777d8b36',
    ('biased-X-d5-bias4', 'mwpm', 2024):
        'e9a6c805e290268d8f75f2ccb9ec3ad13c94052a5f7049be11e367d33ca25188',
    ('biased-X-d5-bias4', 'mwpm_uniform', 7):
        '2f9116a396845b3aa7ca3662809f6921b9681179caa8aa0a7ba7cadbda900959',
    ('biased-X-d5-bias4', 'mwpm_uniform', 2024):
        '41483a1fc2e5224ef46f12f88818e0dbb32d922d08caaa6e3c8d8ffd17454618',
    ('few_reps-d3-r4', 'mwpm', 7):
        '3a4ed0e36a9c143064208a698922340775a7cfd5429f457e528b3ca3ac8d9e46',
    ('few_reps-d3-r4', 'mwpm', 2024):
        '13377106e7f874baf1f22f8eac8e194271d7664db74908d8b9d40c65602384e4',
    ('few_reps-d3-r4', 'mwpm_uniform', 7):
        'a884cff5592ca70b0b7daa14b2f03bf0e9e2caf3c3dd6c05fba66e81883e9741',
    ('few_reps-d3-r4', 'mwpm_uniform', 2024):
        '415921a37c4cd8c0a240b34e7c9aa63021d4b3787f91ddf00fb3e6dcd413eaf8',
    ('memory-X-d3', 'mwpm', 7):
        'a56212c6d4d86790e524b74f257ca6b3b72c36d9bfcabc162dbb65727ff70297',
    ('memory-X-d3', 'mwpm', 2024):
        'f51055bf7dff7b1e854993e1ce6628c8b399e0630897a628560733df248b47e0',
    ('memory-X-d3', 'mwpm_uniform', 7):
        '05130935e79848ca4acda7969ce1b4d1bebad02c1fb450fdc6d4717fb5a8ea2b',
    ('memory-X-d3', 'mwpm_uniform', 2024):
        '10f4381b1316d471220d854bd6c3ca5446f788138f7708db728cf294544810ef',
    ('memory-X-d5', 'mwpm', 7):
        '5d2e5d2ac1aefafccddf85315413719ea5fa1d8208bcc2ecb9f03bffb40d1782',
    ('memory-X-d5', 'mwpm', 2024):
        '2a8d0cf67c8aae20f8d8d5c05852fb96b4a1a8ca56fec0d6b99cb5698e7d798d',
    ('memory-X-d5', 'mwpm_uniform', 7):
        '43e4f23faaa5e37d11f3adaca8ac3c2fd8a1476112d2848be24eae9d24f8c3b1',
    ('memory-X-d5', 'mwpm_uniform', 2024):
        '0f03bc48cd019c2ab0366aaa221042765cd7caf4e9112e74f70f5ef666c5ddd7',
    ('memory-X-d7', 'mwpm', 7):
        '2ad3963a362b4f028de6143d376bc5b5354fe0df51bc203c3f478a30aae1c6d3',
    ('memory-X-d7', 'mwpm', 2024):
        'b11110a43e7bd0a3b3b40d64430ad07951c963496a818573a211501259ba0788',
    ('memory-X-d7', 'mwpm_uniform', 7):
        '0c119b86bd4596a1560b901b39f08f4f6726c3135458e295f9dfd884fe18fe86',
    ('memory-X-d7', 'mwpm_uniform', 2024):
        'b11110a43e7bd0a3b3b40d64430ad07951c963496a818573a211501259ba0788',
    ('memory-Z-d11-r12', 'mwpm', 7):
        '6eae7a7d4d60b8ffeb9a6258fcb84795a95a751c9cd5a421e1eb3dbab0593e50',
    ('memory-Z-d11-r12', 'mwpm', 2024):
        '0b94ae0cb7333e3cdf3ec15094c7588a6030c214dce0d41c7f38883b7a1ce14b',
    ('memory-Z-d11-r12', 'mwpm_uniform', 7):
        '6eae7a7d4d60b8ffeb9a6258fcb84795a95a751c9cd5a421e1eb3dbab0593e50',
    ('memory-Z-d11-r12', 'mwpm_uniform', 2024):
        '0b94ae0cb7333e3cdf3ec15094c7588a6030c214dce0d41c7f38883b7a1ce14b',
    ('memory-Z-d3', 'mwpm', 7):
        '4d086116c5298ed4861f7417270fd32660bf81ceb28e833befbfe506349ef6ff',
    ('memory-Z-d3', 'mwpm', 2024):
        '0a0bd7a3db67d360c57c1b0da095019b8c76f6b3d6f0c6607c9f4fe61841dda1',
    ('memory-Z-d3', 'mwpm_uniform', 7):
        'ca76802c4620e4c67b6acd2b1be37125efb98ab62d8f73a59460e2c564ca841d',
    ('memory-Z-d3', 'mwpm_uniform', 2024):
        '953743d4e4dabebe0d47587da073e098fd80d1f9dcbd1f047a7bc48a1f66afe0',
    ('memory-Z-d5', 'mwpm', 7):
        '16b41f30c510b3d39004bb7c0e713c07c24f45c3d8d77ed850cf698a42fa58bc',
    ('memory-Z-d5', 'mwpm', 2024):
        '6fc2f45261587d8686bb1ff5b4cd1eabcb548cb886746ff5ab06b587426714a3',
    ('memory-Z-d5', 'mwpm_uniform', 7):
        '675b390f12dacffac7ae96e7af5f71e940133e8bdab9737d9776f2c030cb3c35',
    ('memory-Z-d5', 'mwpm_uniform', 2024):
        '5254ee373a821385079bdd404980524a7d1c5317079b4814c0a011330167f466',
    ('memory-Z-d7', 'mwpm', 7):
        'c29743faa29a11603f8b49f5b0e440e7eafe25379cfcc81ed91162951822e407',
    ('memory-Z-d7', 'mwpm', 2024):
        '4f9ccb64edd793800ee65c93a27d8d9d04cebb9cdef9c5d9cb3f0753c7f039ac',
    ('memory-Z-d7', 'mwpm_uniform', 7):
        'c29743faa29a11603f8b49f5b0e440e7eafe25379cfcc81ed91162951822e407',
    ('memory-Z-d7', 'mwpm_uniform', 2024):
        '4f9ccb64edd793800ee65c93a27d8d9d04cebb9cdef9c5d9cb3f0753c7f039ac',
    ('rare-d5-r5-p1e-3', 'mwpm', 7):
        '89279b3a8f16c52f31d711358a0d400b87cf0f801ed9f81ec165f36d34e7cf63',
    ('rare-d5-r5-p1e-3', 'mwpm', 2024):
        '00e48a9dfd092251be15ea7a9de9b95c89d2d9287c772dce55c86746281dec26',
    ('rare-d7-r5-p5e-4', 'mwpm', 7):
        '77aa94ac1e03584af84c38d114795bf9000e7e6fabb66369affc88314bc2b800',
    ('rare-d7-r5-p5e-4', 'mwpm', 2024):
        '704fe91c24906c989890820ee137dbb0177b1a018454a3e5b27d302821fbd361',
    ('sequential-d7-r4-X', 'sequential', 7):
        '2839c7b7eaf8ae99a6ef88f03a0ba0e3d7c3f726a86a7a26bcfbd2a63512adbf',
    ('sequential-d7-r4-X', 'sequential', 2024):
        '9c76202e9bc35146876e21a5414b02c6e2b77a9267a8624023e5e45c9d98c4a3',
    ('sequential-d7-r4-Z', 'sequential', 7):
        '4bc56c6310013eed42ee4222d1d04f2c5d07d65d8c1e631cd0b1eea2f784b56b',
    ('sequential-d7-r4-Z', 'sequential', 2024):
        'a40cdf5623a7ce0063645deb121be0503ae3f635a775388e20977104a7a384ea',
    ('transversal_cnot-d3-X', 'mwpm', 7):
        'a70aedb52d9a0bd047c153df0aa9ae4ad294757fc53f242f6cc3ccaa09874e70',
    ('transversal_cnot-d3-X', 'mwpm', 2024):
        '253ac93a47c9d22b7bb577a0edcec2505af6cc5c5ea4f3738652e7569e5d5075',
    ('transversal_cnot-d3-X', 'mwpm_uniform', 7):
        'dcdf52d7d80f8448d924f929874dc14f92fe68e6f125a0c9707484373cb2ad04',
    ('transversal_cnot-d3-X', 'mwpm_uniform', 2024):
        '72bb9095876aee514dc07832652b8c281e7ab95d816977850a4d77a2f1c87f16',
    ('transversal_cnot-d3-Z', 'mwpm', 7):
        'c63b25d465d99c42ae201e09c9520b4d6281c9d7d59958765e56c94d86ac73d8',
    ('transversal_cnot-d3-Z', 'mwpm', 2024):
        'd2b56a20b7eab46674f89556a502fdda4f94edb2c08ae2e3cf049af55761759d',
    ('transversal_cnot-d3-Z', 'mwpm_uniform', 7):
        'f2eeb9bfdc5800d5a0cfaa7718fb39077c905810ebb1952a0a695613e6564711',
    ('transversal_cnot-d3-Z', 'mwpm_uniform', 2024):
        '938d7b0975369f424e16dd2872b905faa3582f55f4af92be9b9d96e3910a8f2c',
}

RARE = {
    "rare-d5-r5-p1e-3": lambda: memory_circuit(5, 5, 1e-3),
    "rare-d7-r5-p5e-4": lambda: memory_circuit(7, 5, 5e-4),
}

SEQUENTIAL = {"sequential-d7-r4-Z": "Z", "sequential-d7-r4-X": "X"}


def _assert_pinned(build, key, packed, num_detectors, monkeypatch):
    """Cold, warm and repeatedly dropped memos all give the pinned digest."""
    decoder = build()
    cold = prediction_digest(decoder, packed, num_detectors)
    warm = prediction_digest(decoder, packed, num_detectors)
    with monkeypatch.context() as patch:
        patch.setattr(mwpm, "_CLUSTER_CACHE_LIMIT", TINY_LIMIT)
        dropped = prediction_digest(build(), packed, num_detectors)
    assert cold == PINNED[key], (key, cold)
    assert warm == cold and dropped == cold, key


@pytest.mark.parametrize("decoder", ["mwpm", "mwpm_uniform"])
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_circuit_traffic_is_pinned(name, decoder, monkeypatch):
    circuit = CIRCUITS[name]()
    dem = extract_dem(circuit)
    for seed in SEEDS:
        packed, _ = FrameSimulator(circuit).sample_packed(
            SHOTS, rng=np.random.default_rng(seed)
        )
        _assert_pinned(
            lambda: make_decoder(decoder, dem),
            (name, decoder, seed), packed, circuit.num_detectors, monkeypatch,
        )


@pytest.mark.parametrize("name", sorted(RARE))
def test_importance_sampled_traffic_is_pinned(name, monkeypatch):
    circuit = RARE[name]()
    dem = extract_dem(circuit)
    sampler = _default_sampler(circuit)
    for seed in SEEDS:
        packed = sampler.sample_weighted(SHOTS, np.random.default_rng(seed))[0]
        _assert_pinned(
            lambda: make_decoder("mwpm", dem),
            (name, "mwpm", seed), packed, circuit.num_detectors, monkeypatch,
        )


@pytest.mark.parametrize("name", sorted(SEQUENTIAL))
def test_sequential_wide_mask_traffic_is_pinned(name, monkeypatch):
    basis = SEQUENTIAL[name]
    builder = transversal_cnot_experiment(7, 4, 2e-3, [1, 2], basis=basis)
    dem = extract_dem(builder.circuit)

    def build():
        return make_decoder(
            "sequential", dem, detector_meta=builder.detector_meta, basis=basis
        )

    assert build()._control_decoder.graph.num_observables > INT64_OBSERVABLES
    for seed in SEEDS:
        packed, _ = FrameSimulator(builder.circuit).sample_packed(
            SHOTS, rng=np.random.default_rng(seed)
        )
        _assert_pinned(
            build, (name, "sequential", seed), packed,
            builder.circuit.num_detectors, monkeypatch,
        )
