"""Host-speed calibration: a fixed kernel timed next to the program.

Shared hosts change speed by up to 1.5x over minutes, with no CPU steal,
when neighbours load the shared caches and memory, and a statistic over
one run cannot remove a change that covers the whole run.  So a run also
times this kernel, which lives in the benchmark and never changes with
the program, before every unit and every set-up, and scales its times by
``REFERENCE_S`` over the kernel's mean time (see :func:`factor`).

The kernel mixes what the program spends its time on: numpy bitwise work
on packed uint64 planes a few MiB large (the sampler and the decoders'
batch tables), gathers from a table larger than the caches, and
interpreted Python over dicts and lists (the decoders' per-cluster loops).
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

# Kernel runs per sample; a sample is the fastest, which drops a run hit
# by a momentary interrupt.
REPEATS = 2

# Seconds of one sample on an unloaded host: the fast mode of the samples
# on the 2-vCPU x86-64 VM the bounds were tuned on.  Times are reported
# as if the host always ran at this speed.
REFERENCE_S = 0.013

_RNG = np.random.default_rng(20250101)
_PLANES = _RNG.integers(0, 2**63, size=(128, 4096), dtype=np.uint64)
_TABLE = _RNG.integers(0, 2**63, size=4 << 20, dtype=np.uint64)
_GATHER = _RNG.integers(0, _TABLE.size, size=1 << 17)


def _kernel() -> int:
    planes = _PLANES.copy()
    for shift in range(1, 5):
        planes ^= np.roll(planes, shift, axis=1)
        planes &= _PLANES
    total = int(_TABLE[_GATHER].sum() & 1)
    parent = list(range(2048))
    weight = {}
    for i in range(16000):
        a, b = (i * 7919) & 2047, (i * 104729) & 2047
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)
        weight[(a, i & 63)] = weight.get((a, i & 63), 0) + 1
    return total + len(weight)


def sample() -> float:
    """Seconds of one calibration sample (fastest of ``REPEATS`` runs)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def factor(samples: List[float]) -> float:
    """How much slower than the reference the host ran over ``samples``.

    Divide a measured time by it (multiply a rate by it) to get the
    figure at reference speed.  The mean, not a low quantile, because the
    program's own times are summed over the same stretch of the run.
    """
    return statistics.mean(samples) / REFERENCE_S
