"""Memoization of pure sub-model calls (estimation-pipeline cache layer).

The paper's evaluation is a family of parameter sweeps over one expensive
estimator; at every grid point the same pure sub-models (timing laws,
distance search, factory/cultivation cycle models, the [[8,3,2]] code
construction) are re-derived from identical frozen-dataclass inputs.  This
module provides the process-wide cache those sweeps share:

* :func:`memoized` -- an ``lru_cache`` wrapper for pure functions whose
  arguments are hashable (frozen dataclasses, scalars).  Unhashable calls
  fall through to the raw function instead of raising.
* :func:`register_cache` -- hook for hand-rolled caches to join the same
  stats/clearing machinery by exposing ``lru_cache``-style ``cache_info``
  / ``cache_clear``; :class:`KeyedCache` is one whose keys are derived
  rather than argument tuples (the fingerprint-keyed fault-table cache
  of :mod:`repro.noise.dem`).
* :func:`cache_stats` -- per-function hit/miss/size counters, used by the
  sweep-engine tests and the benchmark runner.  The same counters are
  exported as ``repro_cache_{hits,misses,entries}{cache=...}`` gauges by
  a scrape-time collector that :mod:`repro.obs` registers (obs depends on
  this module, never the reverse); ``cache_stats()`` remains the stable
  programmatic API.
* :func:`clear_caches` -- reset every registered cache (cold-start timing).
* :func:`caching_disabled` -- context manager bypassing every cache, for
  honest cached-vs-uncached A/B measurements.
* :func:`code_version` -- a fingerprint of the installed ``repro`` source
  tree, used by the persistent result store to invalidate entries computed
  by older code and stamped into every ``ScenarioResult``'s metadata.

Caches are per-process: ``multiprocessing`` sweep workers each build their
own, which keeps results independent of the worker count.  Within a
process the layer is thread-safe: the bypass switch is thread-local (one
thread measuring uncached timings does not stampede the service's worker
threads), and the underlying ``lru_cache`` is safe under the GIL.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, TypeVar

F = TypeVar("F", bound=Callable[..., Any])

# All memoized functions, keyed by qualified name, for stats/clearing.
_CACHES: Dict[str, Callable[..., Any]] = {}

# Per-thread bypass switch (see caching_disabled()).  Thread-local rather
# than a module global so a benchmark thread measuring the uncached
# baseline cannot disable caching for concurrent service requests.
_LOCAL = threading.local()

# Lazily computed source-tree fingerprint (see code_version()); guarded by
# _FINGERPRINT_LOCK and reset by clear_caches().
_FINGERPRINT: Optional[str] = None
_FINGERPRINT_LOCK = threading.Lock()


def _bypassed() -> bool:
    return getattr(_LOCAL, "disabled", False)


def _hashable(args: tuple, kwargs: dict) -> bool:
    try:
        hash(args)
        hash(tuple(sorted(kwargs.items())))
    except TypeError:
        return False
    return True


def memoized(fn: F) -> F:
    """Memoize a pure function keyed on its (hashable) arguments.

    The decorated function must be deterministic and return a value that is
    safe to share between callers (immutable, or only ever read).  Calls
    with unhashable arguments (e.g. an explicit list of sweep periods)
    bypass the cache silently.
    """
    cached = functools.lru_cache(maxsize=None)(fn)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if _bypassed() or not _hashable(args, kwargs):
            return fn(*args, **kwargs)
        return cached(*args, **kwargs)

    wrapper.cache_info = cached.cache_info  # type: ignore[attr-defined]
    wrapper.cache_clear = cached.cache_clear  # type: ignore[attr-defined]
    name = f"{fn.__module__}.{fn.__qualname__}"
    _CACHES[name] = wrapper
    return wrapper  # type: ignore[return-value]


def register_cache(name: str, cache: Any) -> None:
    """Register a hand-rolled cache for :func:`cache_stats`/:func:`clear_caches`.

    ``cache`` must expose ``lru_cache``-style ``cache_info()`` (an object
    with ``hits``/``misses``/``currsize`` attributes) and ``cache_clear()``.
    Used by caches whose keys are computed (content fingerprints) rather
    than taken from hashable call arguments, which :func:`memoized` cannot
    express.
    """
    if name in _CACHES:
        raise ValueError(f"cache {name!r} is already registered")
    for attr in ("cache_info", "cache_clear"):
        if not callable(getattr(cache, attr, None)):
            raise TypeError(f"cache {name!r} must provide {attr}()")
    _CACHES[name] = cache


_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class KeyedCache:
    """Memo of ``build(arg)`` keyed by a derived ``key(arg)``.

    For arguments that are not hashable themselves: circuits are keyed by
    a content fingerprint, so equal circuits built independently share
    one entry.  Values must be safe to share (immutable after building).
    Counters follow ``lru_cache``'s ``cache_info``; pass the cache to
    :func:`register_cache` to join :func:`cache_stats` /
    :func:`clear_caches`.
    """

    def __init__(self, key: Callable[[Any], Any], build: Callable[[Any], Any]) -> None:
        self._key = key
        self._build = build
        self._values: Dict[Any, Any] = {}
        self._hits = 0
        self._misses = 0

    def __call__(self, arg: Any) -> Any:
        key = self._key(arg)
        value = self._values.get(key)
        if value is not None:
            self._hits += 1
            return value
        self._misses += 1
        value = self._values[key] = self._build(arg)
        return value

    def cache_info(self) -> "_CacheInfo":
        return _CacheInfo(self._hits, self._misses, None, len(self._values))

    def cache_clear(self) -> None:
        self._values.clear()
        self._hits = 0
        self._misses = 0


def cache_stats() -> Dict[str, Tuple[int, int, int]]:
    """Per-function ``(hits, misses, currsize)`` for every registered cache."""
    out: Dict[str, Tuple[int, int, int]] = {}
    for name, fn in _CACHES.items():
        info = fn.cache_info()
        out[name] = (info.hits, info.misses, info.currsize)
    return out


def clear_caches() -> None:
    """Empty every registered cache (for cold-start benchmarks and tests).

    Also drops the memoized :func:`code_version` fingerprint so the next
    caller re-hashes the source tree -- a test that monkeypatches the
    fingerprint (or an embedder that hot-reloads modules) gets a coherent
    value after clearing.
    """
    global _FINGERPRINT
    for fn in _CACHES.values():
        fn.cache_clear()
    with _FINGERPRINT_LOCK:
        _FINGERPRINT = None


@contextmanager
def caching_disabled() -> Iterator[None]:
    """Temporarily bypass every cache built with :func:`memoized`.

    Used by the benchmark runner to measure the uncached baseline of a
    sweep without reverting the refactor.  The switch is thread-local:
    only the calling thread bypasses its caches, so concurrent service
    worker threads keep their hits.
    """
    previous = _bypassed()
    _LOCAL.disabled = True
    try:
        yield
    finally:
        _LOCAL.disabled = previous


def code_version() -> str:
    """Fingerprint of the installed ``repro`` source tree (16 hex chars).

    A stable hash over every ``*.py`` file under the package root, in
    sorted relative-path order.  The persistent result store bakes it into
    every entry's key so results computed by older code can never be
    served by newer code, and :class:`~repro.estimator.registry.Scenario`
    stamps it into result metadata (visible in ``--json`` output and the
    HTTP API).  Computed once per process and cached; reset by
    :func:`clear_caches`.
    """
    global _FINGERPRINT
    with _FINGERPRINT_LOCK:
        if _FINGERPRINT is None:
            import repro

            root = Path(repro.__file__).resolve().parent
            digest = hashlib.sha256()
            for path in sorted(root.rglob("*.py")):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
                digest.update(b"\0")
            _FINGERPRINT = digest.hexdigest()[:16]
        return _FINGERPRINT
