"""Mergeable metrics registry: counters, gauges, fixed-bucket histograms.

The measurement substrate for every hot subsystem (decoding engine,
periodic compiler, sweep engine, HTTP service).  Design constraints, in
order:

* **Worker-count invariance** -- the engines ship work to
  ``multiprocessing`` pools, and PR 1's contract is that results never
  depend on the worker count.  Telemetry extends that contract: a worker
  captures :func:`snapshot` before a shard, computes the
  :func:`delta_since` after, and ships the delta home with the shard
  result; the parent :func:`merge`\\ s it (:func:`metered_map` runs
  this protocol over a pool).  Counters and histogram bucket
  arrays are pure sums, so ``jobs=1`` and ``jobs=4`` merge to identical
  deterministic series (wall-clock-valued series differ in *value*, never
  in shape).
* **Mergeable histograms** -- fixed bucket bounds chosen at creation;
  observation lands in one bucket, merging is element-wise addition, and
  percentiles are interpolated from the cumulative bucket counts
  (:meth:`Histogram.percentile`).  This is what lets decode-latency
  p50/p99 survive sharding, process boundaries, and Prometheus scrapes
  unchanged.
* **Near-zero overhead, and a hard off switch** -- recording is a lock,
  a float add, and (histograms) a bisect.  :func:`set_enabled` (or
  ``REPRO_METRICS=0``) turns every record call into a single attribute
  check; ``tests/test_engine_gates.py`` gates the enabled/disabled
  engine throughput ratio at 3%.
* **Registry idiom** -- metrics are owned by a process-wide
  :data:`REGISTRY` and created with :func:`counter` / :func:`gauge` /
  :func:`histogram`, get-or-create by name like the decoder/noise/
  scenario registries; re-declaring a name with a different type or
  label set is an error.

Collectors (:func:`register_collector`) contribute *computed* gauge
families at scrape time -- cache hit counters, job-queue depth -- without
the owning subsystem pushing values on every change.  Collected series
appear in :func:`collect` (and therefore ``/metrics``) but never in
deltas: a gauge is a statement about *this* process now, not an additive
quantity.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

LabelValues = Tuple[str, ...]
Snapshot = Dict[str, Dict[str, Any]]

# Latency buckets (seconds): log-spaced from 10us to 10s, the span between
# a single cached decode and a cold d=11 DEM extraction.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Count buckets (powers of two): for size-like observations such as
# rows per batch.
COUNT_BUCKETS: Tuple[float, ...] = tuple(float(2 ** k) for k in range(17))

_TYPES = ("counter", "gauge", "histogram")


def _label_key(labelnames: Tuple[str, ...], labels: Dict[str, str]) -> LabelValues:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """One family: a name, a type, label names, and per-labelset series."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: Dict[LabelValues, Any] = {}
        if not self.labelnames:
            self._series[()] = self._new_value()

    # -- subclass hooks -----------------------------------------------------

    def _new_value(self) -> Any:
        return 0.0

    # -- label handling -----------------------------------------------------

    def labels(self, **labels: Any) -> "_Child":
        key = _label_key(self.labelnames, {k: str(v) for k, v in labels.items()})
        with self._lock:
            if key not in self._series:
                self._series[key] = self._new_value()
        return _Child(self, key)

    def _value_snapshot(self, value: Any) -> Any:
        return value

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            series = {
                key: self._value_snapshot(value)
                for key, value in self._series.items()
            }
        return {
            "type": self.kind,
            "help": self.help,
            "labelnames": self.labelnames,
            "series": series,
        }

    def _reset(self) -> None:
        with self._lock:
            for key in self._series:
                self._series[key] = self._new_value()


class _Child:
    """A family bound to one label-value tuple."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: _Metric, key: LabelValues) -> None:
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._metric._inc(self._key, amount)

    def set(self, value: float) -> None:
        self._metric._set(self._key, value)

    def observe(self, value: float) -> None:
        self._metric._observe(self._key, value)

    @property
    def value(self) -> Any:
        with self._metric._lock:
            return self._metric._value_snapshot(self._metric._series[self._key])


class Counter(_Metric):
    """Monotonic float counter; ``inc`` only."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self._inc((), amount)

    def _inc(self, key: LabelValues, amount: float) -> None:
        if not _ENABLED.on:
            return
        if amount < 0:
            raise ValueError("counters only increase")
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._series[()]


class Gauge(_Metric):
    """Last-write-wins value; excluded from deltas and merging."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self._set((), value)

    def inc(self, amount: float = 1.0) -> None:
        self._inc((), amount)

    def _set(self, key: LabelValues, value: float) -> None:
        if not _ENABLED.on:
            return
        with self._lock:
            self._series[key] = float(value)

    def _inc(self, key: LabelValues, amount: float) -> None:
        if not _ENABLED.on:
            return
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._series[()]


class _HistValue:
    """Mutable per-series histogram state: bucket counts + sum + count."""

    __slots__ = ("buckets", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.buckets = [0] * num_buckets  # one per bound, plus +Inf at the end
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket histogram; merge = element-wise bucket addition.

    ``bounds`` are the finite upper bounds (ascending); an implicit +Inf
    bucket catches the overflow.  An observation lands in the first bucket
    whose bound is >= the value (Prometheus ``le`` semantics, applied
    non-cumulatively here; the exposition cumulates).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        bounds: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be non-empty and ascending")
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise ValueError("bounds must be finite; +Inf is implicit")
        self.bounds = bounds
        super().__init__(name, help, labelnames)

    def _new_value(self) -> _HistValue:
        return _HistValue(len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self._observe((), value)

    def _observe(self, key: LabelValues, value: float) -> None:
        if not _ENABLED.on:
            return
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = self._series[key] = self._new_value()
            state.buckets[index] += 1
            state.sum += value
            state.count += 1

    def _value_snapshot(self, value: _HistValue) -> Dict[str, Any]:
        return {
            "bounds": self.bounds,
            "buckets": list(value.buckets),
            "sum": value.sum,
            "count": value.count,
        }

    # -- percentiles --------------------------------------------------------

    @staticmethod
    def percentile_of(series_value: Dict[str, Any], q: float) -> float:
        """Interpolated q-quantile (q in [0, 1]) of one snapshot series.

        Linear interpolation inside the containing bucket (lower edge 0
        for the first); observations in the +Inf bucket report the last
        finite bound.  NaN on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        count = series_value["count"]
        if count == 0:
            return math.nan
        bounds = series_value["bounds"]
        target = q * count
        cumulative = 0
        for index, bucket_count in enumerate(series_value["buckets"]):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count > 0:
                if index >= len(bounds):  # +Inf bucket
                    return float(bounds[-1])
                lower = 0.0 if index == 0 else float(bounds[index - 1])
                upper = float(bounds[index])
                fraction = (target - previous) / bucket_count
                return lower + fraction * (upper - lower)
        return float(bounds[-1])  # pragma: no cover - count > 0 always lands

    def percentile(self, q: float, labels: Optional[Dict[str, Any]] = None) -> float:
        """q-quantile of one series (labels required iff the family has them)."""
        key = _label_key(
            self.labelnames, {k: str(v) for k, v in (labels or {}).items()}
        )
        with self._lock:
            state = self._series.get(key)
            if state is None:
                return math.nan
            value = self._value_snapshot(state)
        return self.percentile_of(value, q)

    def merged_percentile(self, q: float) -> float:
        """q-quantile over every series of the family merged together."""
        merged: Optional[Dict[str, Any]] = None
        with self._lock:
            for state in self._series.values():
                value = self._value_snapshot(state)
                if merged is None:
                    merged = value
                else:
                    merged["buckets"] = [
                        a + b for a, b in zip(merged["buckets"], value["buckets"])
                    ]
                    merged["sum"] += value["sum"]
                    merged["count"] += value["count"]
        if merged is None:
            return math.nan
        return self.percentile_of(merged, q)


class _Enabled:
    __slots__ = ("on",)

    def __init__(self, on: bool) -> None:
        self.on = on


_ENABLED = _Enabled(os.environ.get("REPRO_METRICS", "1") != "0")


def set_enabled(on: bool) -> None:
    """Globally enable/disable metric recording (register stays live)."""
    _ENABLED.on = bool(on)


def enabled() -> bool:
    return _ENABLED.on


@contextmanager
def metrics_disabled() -> Iterator[None]:
    """Temporarily stop recording -- the benchmark A/B switch."""
    previous = _ENABLED.on
    _ENABLED.on = False
    try:
        yield
    finally:
        _ENABLED.on = previous


Collector = Callable[[], Dict[str, Tuple[str, str, Tuple[str, ...], Dict[LabelValues, float]]]]


class MetricsRegistry:
    """Process-wide metric store with snapshot/delta/merge for sharded runs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        self._collectors: List[Collector] = []

    # -- creation (get-or-create, like the other registries) ----------------

    def _declare(self, cls, name: str, help: str, labelnames, **kwargs) -> _Metric:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already declared as "
                        f"{existing.kind}{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        bounds: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._declare(Histogram, name, help, labelnames, bounds=bounds)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    # -- snapshot / delta / merge -------------------------------------------

    def snapshot(self) -> Snapshot:
        """Plain-data view of every family (pickles across processes)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {metric.name: metric.snapshot() for metric in metrics}

    def delta_since(self, base: Snapshot) -> Snapshot:
        """Additive difference of counters/histograms since ``base``.

        Gauges are excluded: they are not additive, and a worker's gauge
        is a statement about the worker process, not about the run.
        Series absent from ``base`` appear whole; zero deltas are dropped
        so shard messages stay small.
        """
        delta: Snapshot = {}
        for name, family in self.snapshot().items():
            if family["type"] == "gauge":
                continue
            base_series = base.get(name, {}).get("series", {})
            changed: Dict[LabelValues, Any] = {}
            for key, value in family["series"].items():
                before = base_series.get(key)
                if family["type"] == "counter":
                    diff = value - (before or 0.0)
                    if diff:
                        changed[key] = diff
                else:
                    if before is None:
                        if value["count"]:
                            changed[key] = value
                        continue
                    if value["count"] == before["count"]:
                        continue
                    changed[key] = {
                        "bounds": value["bounds"],
                        "buckets": [
                            a - b
                            for a, b in zip(value["buckets"], before["buckets"])
                        ],
                        "sum": value["sum"] - before["sum"],
                        "count": value["count"] - before["count"],
                    }
            if changed:
                delta[name] = {**family, "series": changed}
        return delta

    def merge(self, delta: Snapshot) -> None:
        """Fold a shard's delta into this registry (creating as needed)."""
        for name, family in delta.items():
            kind = family["type"]
            if kind == "counter":
                metric = self.counter(name, family["help"], family["labelnames"])
                for key, amount in family["series"].items():
                    with metric._lock:
                        metric._series[key] = metric._series.get(key, 0.0) + amount
            elif kind == "histogram":
                bounds = None
                for value in family["series"].values():
                    bounds = value["bounds"]
                    break
                metric = self.histogram(
                    name, family["help"], family["labelnames"],
                    bounds=bounds or LATENCY_BUCKETS,
                )
                for key, value in family["series"].items():
                    if tuple(value["bounds"]) != metric.bounds:
                        raise ValueError(
                            f"histogram {name!r} bucket bounds differ; "
                            f"cannot merge"
                        )
                    with metric._lock:
                        state = metric._series.get(key)
                        if state is None:
                            state = metric._series[key] = metric._new_value()
                        for i, c in enumerate(value["buckets"]):
                            state.buckets[i] += c
                        state.sum += value["sum"]
                        state.count += value["count"]
            elif kind == "gauge":
                continue  # by construction deltas never carry gauges
            else:  # pragma: no cover - snapshot only emits known kinds
                raise ValueError(f"unknown metric type {kind!r}")

    def reset(self) -> None:
        """Zero every series (families survive); for tests and benchmarks."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric._reset()

    # -- collectors ----------------------------------------------------------

    def register_collector(self, collector: Collector) -> None:
        """Add a scrape-time gauge source (cache stats, queue depths)."""
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def unregister_collector(self, collector: Collector) -> None:
        with self._lock:
            if collector in self._collectors:
                self._collectors.remove(collector)

    def collect(self) -> Snapshot:
        """Snapshot plus collector-computed gauge families (for exposition)."""
        out = self.snapshot()
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            for name, (kind, help, labelnames, series) in collector().items():
                out[name] = {
                    "type": kind,
                    "help": help,
                    "labelnames": tuple(labelnames),
                    "series": dict(series),
                }
        return out


REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
    """Get-or-create a counter on the default registry."""
    return REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return REGISTRY.gauge(name, help, labelnames)


def histogram(
    name: str,
    help: str = "",
    labelnames: Sequence[str] = (),
    bounds: Sequence[float] = LATENCY_BUCKETS,
) -> Histogram:
    """Get-or-create a histogram on the default registry."""
    return REGISTRY.histogram(name, help, labelnames, bounds=bounds)


def snapshot() -> Snapshot:
    return REGISTRY.snapshot()


def delta_since(base: Snapshot) -> Snapshot:
    return REGISTRY.delta_since(base)


def merge(delta: Snapshot) -> None:
    REGISTRY.merge(delta)


def _call_metered(fn: Callable[[Any], Any], task: Any) -> Tuple[Any, Snapshot]:
    # Snapshot per task, not per worker, so no increment ships twice.
    base = snapshot()
    out = fn(task)
    return out, delta_since(base)


def metered_map(pool: Any, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
    """``pool.map(fn, tasks)`` with the workers' metrics shipped home.

    Each task runs between a :func:`snapshot` and a :func:`delta_since`
    in its worker, and the parent merges the deltas in task order, so
    counters and histograms come out as in a serial run for any worker
    count.  With metrics disabled this is a plain ``pool.map``.
    """
    if not enabled():
        return pool.map(fn, tasks)
    outs = []
    for out, delta in pool.map(functools.partial(_call_metered, fn), tasks):
        merge(delta)
        outs.append(out)
    return outs


def reset() -> None:
    REGISTRY.reset()


def register_collector(collector: Collector) -> None:
    REGISTRY.register_collector(collector)


def unregister_collector(collector: Collector) -> None:
    REGISTRY.unregister_collector(collector)


def percentiles(
    name: str,
    qs: Sequence[float] = (0.5, 0.99),
    labels: Optional[Dict[str, Any]] = None,
) -> Dict[float, float]:
    """Quantiles of a registered histogram, merged across label sets.

    With ``labels`` the quantiles come from that one series; without,
    every series of the family is bucket-merged first (valid because all
    series of a family share bounds).  NaN quantiles mean no observations
    yet.  This is the programmatic surface through which measured
    decode latency is to reach ``ReactionModel.decode_time``
    (:mod:`repro.parallel.reaction`; ROADMAP item 12).
    """
    metric = REGISTRY.get(name)
    if metric is None or metric.kind != "histogram":
        return {q: math.nan for q in qs}
    if labels is not None:
        return {q: metric.percentile(q, labels) for q in qs}
    return {q: metric.merged_percentile(q) for q in qs}
