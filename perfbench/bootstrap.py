"""Process set-up shared by the benchmark scripts.

Import this before anything imports numpy: it pins the BLAS/OpenMP
thread pools to one thread (the engine's own workers are the only
parallelism the benchmark measures) and puts the checkout's ``src`` on
``sys.path``.  The benchmark always runs the source tree next to it,
never an installed copy, so it refuses to run without that tree.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Engine workers per workload; never more than the machine's cores.
MAX_WORKERS = 2


class MissingSource(RuntimeError):
    """The checkout holds no ``src/repro`` tree to benchmark."""


def use_source_tree() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingSource(f"no repro source tree under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def worker_count() -> int:
    return max(1, min(MAX_WORKERS, os.cpu_count() or 1))
