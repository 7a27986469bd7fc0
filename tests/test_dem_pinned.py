"""Pinned detector error models: ``extract_dem`` and its fault table.

DEM extraction is a contract between the circuit and every consumer: the
decoders weight their graphs by the merged mechanisms, and the packed
samplers XOR the rows of the fault table.  These sha256 digests pin both
exactly -- every merged mechanism's probability (``float.hex``), detector
and observable tuples, and every column of the unmerged
:class:`~repro.noise.dem.FaultTable` -- together with the periodic
fallback reason, so a change to how faults are enumerated, propagated,
unrolled or merged shows up here and must be re-pinned on purpose.

The circuits are those of ``test_sample_stream_pinned.py``.  The d=7
r=7 and d=11 r=12 memories take the periodic path; the d=3/d=5 memories
fall back with ``few_reps`` and the transversal-CNOT gadgets with
``no_period``, so both extraction paths are pinned.
"""

import hashlib

import numpy as np
import pytest

from repro.core.cache import clear_caches
from repro.noise.dem import circuit_faults, extract_dem

from test_sample_stream_pinned import CIRCUITS

# name: (periodic_fallback, merged-DEM digest, fault-table digest)
PINNED = {
    "biased-X-d5-bias4": (
        "few_reps",
        "d871fe1d6088bc26e3fca4b38a7fed05a383e3772105366277e3b108f9519a03",
        "aabd1d2214716638eeb74ff19f576a1d59fe6e6ac776992fc7dcf8151e8f6ca9",
    ),
    "few_reps-d3-r4": (
        "few_reps",
        "be1019e6e6c391468e0ce2a4729e5ce2a57a33fe10ab09b0ac1134a22e4f217f",
        "467f6b4d41065773d51c3d56b326a0572dafd6acb68cda50c3ccb37d87e530b6",
    ),
    "memory-X-d3": (
        "few_reps",
        "47e3327683aa0a235e0b2f911b829f00c9afffd33efa64331a7739cf6243835e",
        "19726b507c7d419890fa79cc69d87fa02794e1330dd8ef2a13af0b33081c508a",
    ),
    "memory-X-d5": (
        "few_reps",
        "e4b4102f0c05e3519107bc10b0e601ea4986311078355de2cc3df1d1fe4a01a5",
        "9301a201ae38698cc32930cf111690767f94d6f3f294de67996be853fcbd36d7",
    ),
    "memory-X-d7": (
        None,
        "8a6aa8b43c8fff1fa07d6707e46686257390b90a190df5e0c715dff6967502ef",
        "c8ed459dc01952a30dee44c3ce1ad03587efedf7c82b79d358bd0f688afc8011",
    ),
    "memory-Z-d11-r12": (
        None,
        "621a1922c43f47f7cebb7ddfd1b7ce92cf140f26a4dfe1b9b1d5f49abbfdb109",
        "cf1a994a78a3c99c13e37df165e8903426cedfb648c48d423d8a5eeccb83fe25",
    ),
    "memory-Z-d3": (
        "few_reps",
        "7066b1d00cb1d50e018ec732c311a7339163a1a57199de1cce411dd274629bbe",
        "4fb8398de9d0f28b22e7b488358c161ae27c6d3d618aae040fc0f1c6d162418a",
    ),
    "memory-Z-d5": (
        "few_reps",
        "4c7b2e8796b01ecd5a241d0772e76a3b9e767611a0c88045a217df3dc5e00e43",
        "ba494e0a0cb5784a76b96b4c7b84d0cdbe3e147bf79eeec5976c2e27adda4098",
    ),
    "memory-Z-d7": (
        None,
        "cc344adccb883a8d445c0afdd97c40c97d168287bf921fc837308a44c0a82cd4",
        "18483ff631d9c8489a5242b526509e473c2dc8f9cc75fef5a85b15461865a3f0",
    ),
    "transversal_cnot-d3-X": (
        "no_period",
        "1fe730d5481e3dbac5ff83f4f146fe73d7f76f9a522d632f07997d525e0a1a54",
        "4d50cf6f4d63f7d26346152d9d9212d7bfbf0e4b52c20e1973967620b9578335",
    ),
    "transversal_cnot-d3-Z": (
        "no_period",
        "33631f38b57a2e21d816124afa3b2185799c2c57b31ce3408c18f31266843500",
        "6b56013b9ee998364bbc306032747542264c6f3dcec73a75e6cde6b03b323dae",
    ),
}


def dem_digest(dem):
    """sha256 of the model's counts and its merged mechanisms in order."""
    digest = hashlib.sha256()
    digest.update(f"{dem.num_detectors} {dem.num_observables}\n".encode())
    for mech in dem.mechanisms:
        digest.update(
            f"{float(mech.probability).hex()} {mech.detectors} "
            f"{mech.observables}\n".encode()
        )
    return digest.hexdigest()


def table_digest(table):
    """sha256 of every fault-table column, dtype-normalized."""
    digest = hashlib.sha256()
    columns = (
        ("probabilities", np.float64),
        ("det_start", np.int64),
        ("det_index", np.int64),
        ("obs_start", np.int64),
        ("obs_index", np.int64),
    )
    for name, dtype in columns:
        column = np.ascontiguousarray(getattr(table, name), dtype=dtype)
        digest.update(f"{name} {column.shape}\n".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_dem_is_pinned(name):
    clear_caches()
    circuit = CIRCUITS[name]()
    dem = extract_dem(circuit)
    table = circuit_faults(circuit)
    reason, dem_hex, table_hex = PINNED[name]
    assert dem.periodic_fallback == table.periodic_fallback == reason
    assert table_digest(table) == table_hex
    assert dem_digest(dem) == dem_hex
