"""Smoke test: every module under ``repro`` imports, and so does every
``repro`` import statement in its source.

The CI lint selection (syntax errors and undefined names) does not see an
import of a module that no longer exists.  Importing each module catches
the top-level ones; function-local imports only run when their function
does, so every ``repro`` import in each module's AST is resolved as well.

The benchmark harnesses (``benchmarks/*.py``, ``perfbench/*.py``) are
parsed, not run.  Their ``repro`` and ``oracles`` imports must resolve,
every ``alias.attr`` read or ``f(alias, "attr")`` lookup on an imported
module must name an existing attribute, and every keyword argument
passed to an imported callable must be one it accepts -- so removing an
API the harnesses use fails here, not in the benchmark run.

networkx is imported only where MWPM's blossom fallback runs, so loading
the package does not pay its import time.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
HARNESSES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("benchmarks", "perfbench")
    for path in (ROOT / folder).glob("*.py")
)
CHECKED_ROOTS = ("repro", "oracles")


def _repro_imports(tree):
    """(module, attribute-or-None) for each absolute ``repro`` import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                yield node.module, alias.name


def _resolve(module, attr):
    imported = importlib.import_module(module)
    if attr is not None and attr != "*" and not hasattr(imported, attr):
        importlib.import_module(f"{module}.{attr}")


def test_every_module_and_repro_import_resolves():
    names = sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    )
    assert "repro.decoder.engine" in names
    failures = []
    for name in names:
        try:
            module = importlib.import_module(name)
            tree = ast.parse(Path(module.__file__).read_text())
            for target, attr in _repro_imports(tree):
                if target.split(".")[0] == "repro":
                    _resolve(target, attr)
        except ImportError as exc:
            failures.append(f"{name}: {exc}")
    assert not failures, "\n".join(failures)


def test_package_import_leaves_networkx_unloaded():
    code = (
        "import sys, repro, repro.decoder, repro.estimator; "
        "print('networkx' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def _bindings(tree):
    """Name -> object for every checked import the file makes."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports = [(alias.name, None, alias.asname) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imports = [(node.module, alias.name, alias.asname) for alias in node.names]
        else:
            continue
        for target, attr, asname in imports:
            if target.split(".")[0] not in CHECKED_ROOTS:
                continue
            _resolve(target, attr)
            if attr is None and asname is None:
                # ``import a.b`` binds ``a``.
                target = target.split(".")[0]
            if attr is None:
                bound[asname or target] = importlib.import_module(target)
            elif attr != "*":
                bound[asname or attr] = getattr(importlib.import_module(target), attr)
    return bound


def _lookup(node, bound):
    """Object an ``alias.attr...`` chain names, or None when not checked.

    Raises AttributeError when a module in the chain lacks the attribute.
    """
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _lookup(node.value, bound)
        if isinstance(base, types.ModuleType):
            return getattr(base, node.attr)
    return None


def _check_call(node, bound):
    """Problems with one call: missing string-named attrs, unknown keywords."""
    problems = []
    args = node.args
    if (
        len(args) >= 2
        and isinstance(_lookup(args[0], bound), types.ModuleType)
        and isinstance(args[1], ast.Constant)
        and isinstance(args[1].value, str)
        and not hasattr(_lookup(args[0], bound), args[1].value)
    ):
        problems.append(f"{ast.unparse(args[0])} has no {args[1].value!r}")
    func = _lookup(node.func, bound)
    if func is None or not callable(func):
        return problems
    try:
        params = inspect.signature(func).parameters.values()
    except (TypeError, ValueError):
        return problems
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return problems
    names = {p.name for p in params if p.kind is not p.POSITIONAL_ONLY}
    for keyword in node.keywords:
        if keyword.arg is not None and keyword.arg not in names:
            problems.append(
                f"{ast.unparse(node.func)}() takes no keyword {keyword.arg!r}"
            )
    return problems


@pytest.mark.parametrize("path", HARNESSES)
def test_harness_uses_existing_repro_api(path):
    tree = ast.parse((ROOT / path).read_text())
    bound = _bindings(tree)
    problems = []
    for node in ast.walk(tree):
        try:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                _lookup(node, bound)
            elif isinstance(node, ast.Call):
                problems.extend(_check_call(node, bound))
        except AttributeError as exc:
            problems.append(f"line {node.lineno}: {exc}")
    # A failing call target is met twice: as an attribute and as a call.
    assert not problems, f"{path}:\n" + "\n".join(dict.fromkeys(problems))
