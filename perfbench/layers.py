"""Outside-in tracing of the estimator's layers for the traced run.

:class:`Tracer` wraps the public entry point of every layer in a
``repro.obs.spans`` span, one span per call and never per shot, and
restores the originals on exit.  Spans stay in the span buffer until the
run ends; :func:`layer_metrics` then turns them into the per-layer
metrics.  A layer's self time is its span minus the spans of the layers
it called.

Decode calls get an attribution pass after their span closes (so it is
outside every layer's time): under ``caching_disabled()`` the batch's
unique rows with <= 2 defects, the remaining unique rows, all unique rows,
and the whole batch are decoded again and timed.  ``decode.dedup_s`` is
derived as whole batch minus all unique rows, not measured directly.  The
re-decodes run with the decoder's own per-instance state warm (the MWPM
cluster cache already holds the batch's clusters), so on MWPM
``decode.s`` minus the attributed parts is the cold cluster solving.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.cache import caching_disabled
from repro.decoder import engine as _engine
from repro.decoder.base import BatchDecoder
from repro.estimator.rare import ImportanceSampler
from repro.noise import dem as _dem
from repro.obs import spans as _spans
from repro.sim import frame as _frame
from repro.sim import memory as _memory
from repro.sim import periodic as _periodic
from repro.sim.compiled import CompiledProgram

# repro.estimator re-exports the function ``sweep`` under the submodule's
# name, so the module itself is looked up by its full path.
_sweep = importlib.import_module("repro.estimator.sweep")

MB = float(1 << 20)

_POPCOUNT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1)

# Metric-name prefix of each layer, for ``<layer>.errors``.
LAYERS = ("circuit", "dem", "sim", "rare", "decode", "decoder", "engine", "sweep")


def _planes_bytes(program, shots: int) -> int:
    # The bitplanes run_packed allocates: x and z frames, measurement
    # flips, detector and observable records, each padded to 64-shot words.
    padded = 8 * ((((shots + 7) // 8) + 7) // 8)
    rows = (
        2 * program.num_qubits + program.num_measurements
        + program.num_detectors + program.num_observables
    )
    return rows * padded


class Tracer:
    """Context manager: layer entry points traced while it is active.

    ``phase`` ("setup" or "run") is stamped on every span so setup costs
    and timed-phase costs separate cleanly.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self._seen: set = set()
        self._restore: List[Callable[[], None]] = []

    def span(self, name: str, **args: Any):
        return _spans.span(name, bench=self.phase, **args)

    def __enter__(self) -> "Tracer":
        _spans.enable_tracing()
        self._patch(_memory, "memory_circuit", "circuit.build")
        self._patch(_dem, "extract_dem", "dem.extract",
                    lambda a, out: {"mechanisms": len(out.mechanisms)})
        self._patch(_periodic, "compile_program", "sim.compile",
                    lambda a, out: {
                        "periodic": isinstance(out, _periodic.PeriodicProgram)
                    })
        for program in (CompiledProgram, _periodic.PeriodicProgram):
            self._patch(program, "run_packed", "sim.run_packed",
                        lambda a, out: {
                            "first": self._first("run_packed", a[0]),
                            "planes_bytes": _planes_bytes(a[0], a[1]),
                        })
        self._patch(_frame, "transpose_packed", "sim.transpose")
        self._patch(_engine, "make_decoder", "decoder.build")
        self._patch(ImportanceSampler, "sample_weighted", "rare.sample")
        self._patch(_engine.DecodingEngine, "run", "engine.run")
        self._patch(_engine.DecodingEngine, "collect", "engine.collect",
                    lambda a, out: {"bytes": out[0].nbytes + out[1].nbytes})
        self._patch_decode()
        self._patch_adaptive_shots()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()
        _spans.disable_tracing()

    def _first(self, kind: str, obj: Any) -> bool:
        key = (kind, id(obj))
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def _swap(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _traced(self, name: str, fn: Callable, describe=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                try:
                    out = fn(*args, **kwargs)
                except Exception:
                    s.set(error=True)
                    raise
                if describe is not None:
                    s.set(**describe(args, out))
            return out

        return wrapper

    def _patch(self, owner, attr: str, name: str, describe=None) -> None:
        self._swap(owner, attr, self._traced(name, getattr(owner, attr), describe))

    def _patch_decode(self) -> None:
        original = BatchDecoder.decode_packed

        @functools.wraps(original)
        def decode_packed(decoder, packed, num_detectors, **kwargs):
            with self.span(
                "decode", shots=len(packed), first=self._first("decode", decoder)
            ) as s:
                try:
                    out = original(decoder, packed, num_detectors, **kwargs)
                except Exception:
                    s.set(error=True)
                    raise
            with self.span("bench.attrib") as s:
                s.set(**_attribute(original, decoder, packed, num_detectors))
            return out

        self._swap(BatchDecoder, "decode_packed", decode_packed)

    def _patch_adaptive_shots(self) -> None:
        original = _sweep.adaptive_shots

        @functools.wraps(original)
        def adaptive_shots(run_point, *args, **kwargs):
            return original(
                self._traced("sweep.run_point", run_point), *args, **kwargs
            )

        self._swap(_sweep, "adaptive_shots", adaptive_shots)


def _attribute(decode, decoder, packed, num_detectors) -> Dict[str, Any]:
    """Re-decode one batch's parts uncached and time each part."""
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    unique = packed[first]
    sparse = _POPCOUNT[unique].sum(axis=1) <= 2
    seconds = []
    with caching_disabled():
        for rows in (unique[sparse], unique[~sparse], unique, packed):
            start = time.perf_counter()
            decode(decoder, rows, num_detectors)
            seconds.append(time.perf_counter() - start)
    return {
        "shots": int(packed.shape[0]),
        "unique": int(first.size),
        "sparse_rows": int(sparse.sum()),
        "sparse_shots": int(counts[sparse].sum()),
        "sparse_s": seconds[0],
        "dense_s": seconds[1],
        "dedup_s": seconds[3] - seconds[2],
    }


def _self_times(events: List[Dict[str, Any]]) -> List[float]:
    """Span duration minus the time its directly nested spans cover."""
    order = sorted(range(len(events)), key=lambda i: (events[i]["ts"], -events[i]["dur"]))
    child = [0.0] * len(events)
    stack: List[int] = []
    for i in order:
        start = events[i]["ts"]
        end = start + events[i]["dur"]
        while stack:
            top = events[stack[-1]]
            if top["ts"] <= start and end <= top["ts"] + top["dur"] + 1e-3:
                break
            stack.pop()
        if stack:
            child[stack[-1]] += events[i]["dur"]
        stack.append(i)
    return [(events[i]["dur"] - child[i]) / 1e6 for i in range(len(events))]


def layer_metrics(
    *,
    rounds: int,
    workers: int,
    untraced_wall: float,
    pool_start_s: float,
    shards: int,
    cache: tuple,
    rare_totals: Optional[Dict] = None,
) -> Dict[str, float]:
    """Per-layer metrics from the spans recorded by the last traced run."""
    events = [e for e in _spans.trace_events() if "bench" in e["args"]]
    self_s = _self_times(events)
    spans = defaultdict(list)
    for event, own in zip(events, self_s):
        spans[event["name"]].append((event, own))

    def total(name: str, phase: Optional[str] = None, own: bool = True) -> float:
        return float(sum(
            s if own else e["dur"] / 1e6
            for e, s in spans[name]
            if phase is None or e["args"]["bench"] == phase
        ))

    def args(name: str, key: str) -> List[Any]:
        return [e["args"][key] for e, _ in spans[name] if key in e["args"]]

    def first_calls(name: str) -> float:
        # Each object's first call: lazy tables and empty caches (cold).
        return float(sum(e["dur"] / 1e6 for e, _ in spans[name] if e["args"]["first"]))

    busy = total("bench.unit", own=False) - total("bench.attrib", "run", own=False)
    share = (lambda s: s / busy) if busy > 0 else (lambda s: 0.0)
    attrib = [e["args"] for e, _ in spans["bench.attrib"] if e["args"]["bench"] == "run"]
    shots = sum(a["shots"] for a in attrib)
    unique = sum(a["unique"] for a in attrib)
    warm = [
        (e["dur"] / 1e6, e["args"]["shots"])
        for e, _ in spans["decode"]
        if e["args"]["bench"] == "run" and not e["args"]["first"]
    ]
    warm_s = [w for w, _ in warm]
    warm_shots = sum(n for _, n in warm)
    hits, misses = cache[0], cache[1]
    run_point_s = total("sweep.run_point", own=False)
    metrics = {
        "circuit.build_s": total("circuit.build"),
        "dem.extract_s": total("dem.extract"),
        "dem.mechanisms": float(sum(args("dem.extract", "mechanisms"))),
        "sim.compile_s": total("sim.compile"),
        "sim.periodic": float(any(args("sim.compile", "periodic"))),
        "sim.run_packed_s": total("sim.run_packed", "run"),
        "sim.first_run_packed_s": first_calls("sim.run_packed"),
        "sim.transpose_s": total("sim.transpose", "run"),
        "sim.planes_mb": max(args("sim.run_packed", "planes_bytes"), default=0) / MB,
        "rare.sample_s": total("rare.sample", "run"),
        "decode.s": total("decode", "run"),
        "decode.unique_frac": unique / shots if shots else 0.0,
        "decode.sparse_row_frac": (
            sum(a["sparse_rows"] for a in attrib) / unique if unique else 0.0
        ),
        "decode.sparse_shot_frac": (
            sum(a["sparse_shots"] for a in attrib) / shots if shots else 0.0
        ),
        "decode.cache_hits": float(hits),
        "decode.cache_misses": float(misses),
        "decode.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "decode.sparse_s": sum(a["sparse_s"] for a in attrib),
        "decode.dense_s": sum(a["dense_s"] for a in attrib),
        "decode.dedup_s": sum(a["dedup_s"] for a in attrib),
        "decoder.build_s": total("decoder.build"),
        "decode.first_batch_s": first_calls("decode"),
        "decode.batch_p50_ms": float(np.percentile(warm_s, 50)) * 1e3 if warm_s else 0.0,
        "decode.batch_p90_ms": float(np.percentile(warm_s, 90)) * 1e3 if warm_s else 0.0,
        "decode.us_per_shot_round": (
            sum(warm_s) / (warm_shots * rounds) * 1e6 if warm_shots else 0.0
        ),
        "engine.pool_start_s": pool_start_s,
        "engine.shards": float(shards),
        "engine.parallel_eff": (
            busy / (workers * untraced_wall) if untraced_wall > 0 else 0.0
        ),
        "engine.collect_s": total("engine.collect"),
        "engine.collect_mb": max(args("engine.collect", "bytes"), default=0) / MB,
        "sweep.alloc_s": (
            total("bench.unit", own=False) - run_point_s if spans["sweep.run_point"] else 0.0
        ),
        "sweep.waves": float(len(spans["sweep.run_point"])),
    }
    for metric, time_metric in (
        ("sim.run_packed_share", "sim.run_packed_s"),
        ("sim.transpose_share", "sim.transpose_s"),
        ("rare.sample_share", "rare.sample_s"),
        ("decode.share", "decode.s"),
    ):
        metrics[metric] = share(metrics[time_metric])
    totals = list((rare_totals or {}).values())
    metrics["rare.ess_frac"] = min((r.ess / r.shots for r in totals), default=0.0)
    # A point without failures yet has no finite relative error.
    metrics["rare.rel_error_max"] = max(
        (r.rel_error for r in totals if math.isfinite(r.rel_error)), default=0.0
    )
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = float(sum(
            1 for e in events
            if e["args"].get("error") and e["name"].split(".")[0] == layer
        ))
    return metrics
