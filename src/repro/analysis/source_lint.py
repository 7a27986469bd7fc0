"""AST-level source lint guarding the repo's concurrency and RNG idioms.

Four classes of defect have bitten (or nearly bitten) this codebase and are
invisible to tests that pass by luck:

* **Global-RNG use** -- PR 1 fixed a sweep-wide seed-reuse bug by
  threading ``numpy.random.SeedSequence`` streams through every
  Monte-Carlo path.  A single call into the *module-level* legacy RNG
  (``np.random.seed``, ``np.random.randint``, ...) silently breaks
  worker-count invariance and reproducibility; ``np.random.default_rng()``
  with no seed is flagged as a warning (legitimate as a last-resort
  fallback, wrong anywhere results must reproduce).
* **Worker-visible mutable module state** -- the one executor,
  :class:`repro.obs.metrics.WorkerPool`, allows worker processes exactly
  one piece of module state: its per-process ``_WORKER`` dict.  Any other
  module-level name written from a function that runs inside a pool
  worker (a ``global`` rebind, or mutation of a module-level dict/list)
  is at best lost on the worker and at worst a fork-inherited heisenbug.
* **Bare process pools** -- a pool built outside ``repro/obs/metrics.py``
  bypasses ``WorkerPool``'s in-order metric-delta shipping.
* **Bare ``print()`` in library code** -- library modules must route
  diagnostics through :func:`repro.obs.get_logger` and intentional CLI
  output through :func:`repro.obs.echo`; a stray ``print`` in a hot path
  or a pool worker interleaves garbage into stdout that service clients
  and ``--json`` consumers parse.  CLI entry points (``__main__.py``) are
  exempt, as are files outside ``src/repro`` (benchmarks, examples,
  tests).

The linter is intentionally static and conservative: it walks each file's
AST, identifies worker functions as those passed to
``initializer=`` of a ``...Pool(...)`` call (``WorkerPool`` included) or
to a pool's ``map``/``imap``/``starmap``/``apply_async`` family, and
never executes anything.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Set, Union

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport

_PASS = "source_lint"

# Legacy module-level RNG entry points: calling any of these consumes the
# process-global numpy RNG stream.
GLOBAL_RNG_FUNCTIONS = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "random_integers", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "binomial", "poisson", "exponential",
    "bytes", "get_state", "set_state",
})

# Pool methods whose first positional argument runs in a worker process.
_POOL_DISPATCH = frozenset({
    "map", "map_async", "imap", "imap_unordered", "starmap",
    "starmap_async", "apply", "apply_async",
})

# Module-level mutable names a worker function is allowed to touch: the
# per-process worker state installed by the pool initializer.
DEFAULT_WORKER_STATE = ("_WORKER",)

# Process-pool classes; only the executor's module may build one.
POOL_CLASSES = frozenset({"Pool", "ProcessPoolExecutor"})
POOL_OWNER = ("obs", "metrics.py")

# File names exempt from the print ban: CLI entry points whose stdout IS
# the product.  Library modules use repro.obs.echo / get_logger instead.
PRINT_EXEMPT_FILES = frozenset({"__main__.py"})


def _dotted(node: ast.AST) -> Optional[str]:
    """Dotted name of a Name/Attribute chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _FileLinter:
    def __init__(
        self,
        path: Path,
        tree: ast.Module,
        worker_state: Sequence[str] = DEFAULT_WORKER_STATE,
    ) -> None:
        self.path = path
        self.tree = tree
        self.worker_state = set(worker_state)
        self.numpy_aliases = self._numpy_aliases()
        self.random_aliases = self._numpy_random_aliases()
        self.module_names = self._module_level_names()

    # -- import resolution ---------------------------------------------------

    def _numpy_aliases(self) -> Set[str]:
        aliases = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        aliases.add(alias.asname or "numpy")
        return aliases

    def _numpy_random_aliases(self) -> Set[str]:
        aliases = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy.random":
                        aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            aliases.add(alias.asname or "random")
        return aliases

    def _module_level_names(self) -> Set[str]:
        names: Set[str] = set()
        for node in self.tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    # -- rule 1: global RNG --------------------------------------------------

    def _lint_rng(self) -> Iterator[Diagnostic]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "numpy.random",
            ):
                for alias in node.names:
                    if alias.name in GLOBAL_RNG_FUNCTIONS:
                        yield self._diag(
                            "error", node,
                            f"imports numpy.random.{alias.name}: the "
                            f"module-level RNG breaks seed/worker-count "
                            f"reproducibility; thread a seeded "
                            f"default_rng/SeedSequence stream instead",
                        )
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            fn = parts[-1]
            prefix = parts[:-1]
            is_np_random = (
                len(prefix) == 2
                and prefix[0] in self.numpy_aliases
                and prefix[1] == "random"
            ) or (len(prefix) == 1 and prefix[0] in self.random_aliases)
            if not is_np_random:
                continue
            if fn in GLOBAL_RNG_FUNCTIONS:
                yield self._diag(
                    "error", node,
                    f"call to np.random.{fn}: the module-level RNG breaks "
                    f"seed/worker-count reproducibility; thread a seeded "
                    f"default_rng/SeedSequence stream instead",
                )
            elif fn == "default_rng" and not node.args and not node.keywords:
                yield self._diag(
                    "warning", node,
                    "np.random.default_rng() without a seed: results are "
                    "not reproducible; accept an rng/seed argument where "
                    "determinism matters",
                )

    # -- rule 2: worker-visible module state ---------------------------------

    def _worker_functions(self) -> Set[str]:
        """Names of module-level functions that run inside pool workers."""
        workers: Set[str] = set()
        defined = {
            node.name
            for node in self.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func) or ""
            if dotted.endswith("Pool") or dotted.endswith("Pool.__init__"):
                for kw in node.keywords:
                    if kw.arg == "initializer" and isinstance(kw.value, ast.Name):
                        workers.add(kw.value.id)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_DISPATCH
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in defined
            ):
                workers.add(node.args[0].id)
        return workers

    def _lint_worker_state(self) -> Iterator[Diagnostic]:
        workers = self._worker_functions()
        if not workers:
            return
        for node in self.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in workers:
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Global):
                    yield self._diag(
                        "error", inner,
                        f"worker function {node.name!r} rebinds module "
                        f"global(s) {', '.join(inner.names)}: writes inside "
                        f"a pool worker never reach the parent process",
                    )
                elif isinstance(inner, (ast.Assign, ast.AugAssign)):
                    targets = (
                        inner.targets
                        if isinstance(inner, ast.Assign)
                        else [inner.target]
                    )
                    for target in targets:
                        base = target
                        while isinstance(base, (ast.Subscript, ast.Attribute)):
                            base = base.value
                        if (
                            isinstance(base, ast.Name)
                            and base.id in self.module_names
                            and base.id not in self.worker_state
                        ):
                            yield self._diag(
                                "error", inner,
                                f"worker function {node.name!r} mutates "
                                f"module-level state {base.id!r}; only the "
                                f"initializer-installed per-worker dict "
                                f"({', '.join(sorted(self.worker_state))}) "
                                f"may be written from a worker",
                            )

    # -- rule 3: bare process pools ------------------------------------------

    def _lint_pools(self) -> Iterator[Diagnostic]:
        if self.path.parts[-2:] == POOL_OWNER:
            return
        imported = {
            alias.asname or alias.name
            for node in ast.walk(self.tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in POOL_CLASSES
        }
        for node in ast.walk(self.tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr in POOL_CLASSES) or (
                isinstance(func, ast.Name) and func.id in imported
            ):
                yield self._diag(
                    "error", node,
                    "builds a process pool outside repro.obs.metrics: map "
                    "through repro.obs.metrics.WorkerPool, which ships each "
                    "task's metric delta home in task order",
                )

    # -- rule 4: bare print() in library code --------------------------------

    def _lint_prints(self) -> Iterator[Diagnostic]:
        if self.path.name in PRINT_EXEMPT_FILES:
            return
        for node in ast.walk(self.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self._diag(
                    "error", node,
                    "bare print() in library code: route intentional CLI "
                    "output through repro.obs.echo and diagnostics through "
                    "repro.obs.get_logger",
                )

    def _diag(self, severity: str, node: ast.AST, message: str) -> Diagnostic:
        line = getattr(node, "lineno", 0)
        return Diagnostic(
            severity, _PASS, f"line {line}: {message}", target=str(self.path)
        )

    def lint(self) -> List[Diagnostic]:
        return (
            list(self._lint_rng())
            + list(self._lint_worker_state())
            + list(self._lint_pools())
            + list(self._lint_prints())
        )


def lint_file(
    path: Union[str, Path],
    *,
    worker_state: Sequence[str] = DEFAULT_WORKER_STATE,
) -> List[Diagnostic]:
    """Lint one Python source file; syntax errors become error diagnostics."""
    path = Path(path)
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        return [Diagnostic(
            "error", _PASS, f"line {exc.lineno}: syntax error: {exc.msg}",
            target=str(path),
        )]
    return _FileLinter(path, tree, worker_state).lint()


def source_root() -> Path:
    """Root of the installed ``repro`` package sources."""
    return Path(__file__).resolve().parent.parent


def lint_source(
    paths: Optional[Sequence[Union[str, Path]]] = None,
    *,
    worker_state: Sequence[str] = DEFAULT_WORKER_STATE,
) -> DiagnosticReport:
    """Lint Python files (default: every module of the repro package)."""
    if paths is None:
        paths = sorted(source_root().rglob("*.py"))
    diagnostics: List[Diagnostic] = []
    for path in paths:
        diagnostics.extend(lint_file(path, worker_state=worker_state))
    return DiagnosticReport(tuple(diagnostics))
