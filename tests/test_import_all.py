"""Smoke test: every module under ``repro`` imports, and so does every
``repro`` import statement in its source.

The CI lint selection (syntax errors and undefined names) does not see an
import of a module that no longer exists.  Importing each module catches
the top-level ones; function-local imports only run when their function
does, so every ``repro`` import in each module's AST is resolved as well.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import repro


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
