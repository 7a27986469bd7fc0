"""Literal engine and sweep outcomes at one and two workers.

Every Monte-Carlo number reaches the estimator through the engine's or
the sweep's shard maps.  These pins fix what ``run``, ``run_until`` and
``run_until_rel_error`` return (every :class:`EngineResult` field, float
sums compared as ``float.hex``), how far an early stop samples past its
stop, the defect batch ``collect`` ships home, and the sweep's records
through its worker pool.  A change to how shards are dispatched must
leave every value as it is.
"""

import dataclasses
import hashlib
import importlib

import numpy as np
import pytest

from repro.decoder.engine import DecodingEngine
from repro.estimator.rare import rare_engine
from repro.obs import metrics
from repro.sim.memory import memory_circuit

# `repro.estimator.sweep` the *attribute* is shadowed by the function.
sweep_module = importlib.import_module("repro.estimator.sweep")

WORKERS = (1, 2)


def _build(kind, workers):
    if kind == "mwpm":
        return DecodingEngine(
            memory_circuit(3, 3, 1e-2), "mwpm", shard_shots=100, workers=workers
        )
    if kind == "union_find":
        return DecodingEngine(
            memory_circuit(5, 3, 5e-3), "union_find", shard_shots=128,
            workers=workers,
        )
    return rare_engine(
        memory_circuit(3, 3, 2e-3), "mwpm", shard_shots=256, workers=workers
    )


RUNS = {
    "run": lambda e: e.run(1000, seed=5),
    "until": lambda e: e.run_until(5, max_shots=5000, seed=6),
    "rel": lambda e: e.run_until_rel_error(0.3, max_shots=20000, seed=7),
    "cap": lambda e: e.run_until(10**6, max_shots=450, seed=8),
}

# (engine, run) -> EngineResult fields before shots_beyond_stop.
PINNED = {
    ("mwpm", "run"): (1000, 90, 10, "0x1.6800000000000p+6", "0x1.6800000000000p+6", "0x1.f400000000000p+9", "0x1.f400000000000p+9"),
    ("mwpm", "until"): (100, 5, 1, "0x1.4000000000000p+2", "0x1.4000000000000p+2", "0x1.9000000000000p+6", "0x1.9000000000000p+6"),
    ("mwpm", "rel"): (200, 15, 2, "0x1.e000000000000p+3", "0x1.e000000000000p+3", "0x1.9000000000000p+7", "0x1.9000000000000p+7"),
    ("mwpm", "cap"): (450, 33, 5, "0x1.0800000000000p+5", "0x1.0800000000000p+5", "0x1.c200000000000p+8", "0x1.c200000000000p+8"),
    ("union_find", "run"): (1000, 27, 8, "0x1.b000000000000p+4", "0x1.b000000000000p+4", "0x1.f400000000000p+9", "0x1.f400000000000p+9"),
    ("union_find", "until"): (384, 8, 3, "0x1.0000000000000p+3", "0x1.0000000000000p+3", "0x1.8000000000000p+8", "0x1.8000000000000p+8"),
    ("union_find", "rel"): (384, 12, 3, "0x1.8000000000000p+3", "0x1.8000000000000p+3", "0x1.8000000000000p+8", "0x1.8000000000000p+8"),
    ("union_find", "cap"): (450, 8, 4, "0x1.0000000000000p+3", "0x1.0000000000000p+3", "0x1.c200000000000p+8", "0x1.c200000000000p+8"),
    ("rare", "run"): (1000, 216, 4, "0x1.442bb41c394fcp+3", "0x1.69803e3b9fdacp+3", "0x1.e668dee76b946p+9", "0x1.73cc617689d3fp+13"),
    ("rare", "until"): (256, 58, 1, "0x1.92c2988d17a1ep+2", "0x1.08db3571966d4p+3", "0x1.203d04a9ccc41p+8", "0x1.d4edbcca607dfp+11"),
    ("rare", "rel"): (1280, 272, 5, "0x1.8d93cbee82513p+3", "0x1.713adbc0f2f58p+3", "0x1.21a95436c78ddp+10", "0x1.b0043a7464da8p+13"),
    ("rare", "cap"): (450, 99, 2, "0x1.526834d0b11abp+1", "0x1.71ffa55c8143cp-2", "0x1.11507d3173818p+9", "0x1.c398e840ff1e0p+12"),
}

# (engine, run) -> shots_beyond_stop at 2 workers (0 at 1 worker): the
# early stops that land on the first shard of a two-shard wave sample
# the second one anyway.
BEYOND_AT_2 = {
    ("union_find", "until"): 128,
    ("union_find", "rel"): 128,
    ("mwpm", "until"): 100,
    ("rare", "until"): 256,
    ("rare", "rel"): 256,
}

# collect(shots, seed=3) of the mwpm engine -> sha256 of its DefectBatch.
COLLECT = {
    0: "284e93a9e4ab3b621b26e69618b2dac0bdf9e31ba88a7a24562ccf855cbed214",
    250: "9832010347f72c297dfa523e84ac071fb539c43936b198af884aa4c18acca986",
}


def _fields(result):
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in (
            getattr(result, field.name)
            for field in dataclasses.fields(result)
        )
    )


def _digest(batch):
    h = hashlib.sha256()
    for array in (batch.shot, batch.detector, batch.observables):
        h.update(repr((array.dtype.str, array.shape)).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module", params=WORKERS, ids=lambda w: f"workers{w}")
def engines(request):
    built = {kind: _build(kind, request.param) for kind in ("mwpm", "union_find", "rare")}
    yield request.param, built
    for engine in built.values():
        engine.close()


@pytest.mark.parametrize(
    "kind, mode", sorted(PINNED), ids=[f"{k}-{m}" for k, m in sorted(PINNED)]
)
def test_engine_result_pinned(engines, kind, mode):
    workers, built = engines
    result = RUNS[mode](built[kind])
    beyond = BEYOND_AT_2.get((kind, mode), 0) if workers == 2 else 0
    assert _fields(result) == PINNED[kind, mode] + (beyond,)


def test_run_until_stops_mid_wave(engines):
    # Three 128-shot shards reach the target: at two workers the third
    # opens a second wave whose other shard runs past the stop.
    workers, built = engines
    result = built["union_find"].run_until(5, max_shots=5000, seed=6)
    assert result.shards == 3
    assert result.shots_beyond_stop == (128 if workers == 2 else 0)


@pytest.mark.parametrize("shots", sorted(COLLECT))
def test_collect_batch_pinned(engines, shots):
    _, built = engines
    batch = built["mwpm"].collect(shots, seed=3)
    assert batch.shots == shots
    assert _digest(batch) == COLLECT[shots]


def _engine_point(point):
    result = DecodingEngine(
        memory_circuit(3, 2, point["p"]), "union_find", shard_shots=64
    ).run(200, seed=point["seed"])
    return {"failures": result.failures, "shards": result.shards}


# Failures per grid point (p, seed), in grid order.
SWEEP_PINNED = [10, 3, 15, 23, 41, 39]


def test_sweep_records_pooled_match_serial(monkeypatch):
    # A zero measured overhead forces the pooled path for every grid.
    monkeypatch.setitem(sweep_module._CALIBRATION, 2, 0.0)
    spec = sweep_module.grid(p=(5e-3, 1e-2, 2e-2), seed=(1, 2))
    pooled_runs = sweep_module._SWEEP_RUNS.labels(mode="pooled")
    before = pooled_runs.value
    serial = sweep_module.sweep(_engine_point, spec, jobs=1)
    pooled = sweep_module.sweep(_engine_point, spec, jobs=2, shard_size=2)
    if metrics.enabled():
        assert pooled_runs.value == before + 1
    assert pooled == serial
    assert [r["shards"] for r in serial] == [4] * 6
    assert [r["failures"] for r in serial] == SWEEP_PINNED
