"""The names layer tracing attaches to, and the engine's own shard spans.

``perfbench/layers.py`` wraps layer entry points by swapping attributes
through ``owner.__dict__[attr]``, so each hooked name must stay bound in
that exact namespace (a class body, not just inherited) even when
nothing in ``src/`` calls it any more; a missing name makes every traced
run fail at ``Tracer.__enter__``.  The engine's shard body carries its
own ``engine.sample`` / ``engine.decode`` spans inside ``engine.shard``,
so ``REPRO_TRACE`` shows where shard time goes without by-name hooks.
"""

import importlib.util
import os

import numpy as np
import pytest

from repro.decoder import engine as _engine
from repro.decoder.base import BatchDecoder
from repro.estimator.rare import ImportanceSampler
from repro.noise import dem as _dem
from repro.obs import clear_trace, disable_tracing, enable_tracing, trace_events
from repro.sim import frame as _frame
from repro.sim import memory as _memory
from repro.sim import periodic as _periodic
from repro.sim.compiled import CompiledProgram
from repro.sim.memory import memory_circuit

# repro.estimator re-exports the function ``sweep`` under the module's name.
_sweep = importlib.import_module("repro.estimator.sweep")
_LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")

HOOKS = [
    (_memory, "memory_circuit"),
    (_dem, "extract_dem"),
    (_periodic, "compile_program"),
    (CompiledProgram, "run_packed"),
    (_periodic.PeriodicProgram, "run_packed"),
    (_frame, "transpose_packed"),
    (_engine, "make_decoder"),
    (ImportanceSampler, "sample_weighted"),
    (_engine.DecodingEngine, "run"),
    (_engine.DecodingEngine, "collect"),
    (BatchDecoder, "decode_packed"),
    (_sweep, "adaptive_shots"),
]


@pytest.mark.parametrize(
    "owner, attr", HOOKS, ids=[f"{o.__name__}.{a}" for o, a in HOOKS]
)
def test_hooked_name_is_bound_where_the_tracer_looks(owner, attr):
    assert callable(owner.__dict__[attr])


def test_collect_returns_two_arrays():
    with _engine.DecodingEngine(memory_circuit(3, 3, 1e-2), "mwpm", shard_shots=50) as engine:
        out = engine.collect(120, seed=1)
    assert len(out) == 2
    assert all(isinstance(part, np.ndarray) and part.shape[0] == 120 for part in out)


@pytest.mark.skipif(not os.path.exists(_LAYERS), reason="perfbench not present")
def test_layer_tracer_attaches_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in HOOKS}
    try:
        with layers.Tracer():
            swapped = [key for key, fn in before.items() if key[0].__dict__[key[1]] is not fn]
    finally:
        disable_tracing()
        clear_trace()
    assert len(swapped) == len(HOOKS)
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items())


def test_engine_shard_has_sample_and_decode_spans():
    engine = _engine.DecodingEngine(memory_circuit(3, 3, 1e-2), "mwpm", shard_shots=100)
    enable_tracing()
    try:
        engine.run(250, seed=3)
        events = trace_events()
    finally:
        disable_tracing()
        clear_trace()
    shards = [e for e in events if e["name"] == "engine.shard"]
    assert len(shards) == 3
    for name in ("engine.sample", "engine.decode"):
        children = [e for e in events if e["name"] == name]
        assert len(children) == 3
        for shard, child in zip(shards, children):
            assert child["args"]["depth"] == shard["args"]["depth"] + 1
            assert shard["ts"] <= child["ts"]
            assert child["ts"] + child["dur"] <= shard["ts"] + shard["dur"] + 1e-3
