"""Every module-level import in ``tollkit`` is used by its module or
listed in the module's ``__all__``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import tollkit

MODULES = sorted(Path(tollkit.__file__).parent.glob("*.py"))


def module_imports(body):
    """``(bound name, line)`` of every import in ``body`` outside functions
    and classes, ``__future__`` features aside."""
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from module_imports(getattr(node, field, []))
        elif isinstance(node, ast.ExceptHandler):
            yield from module_imports(node.body)


def exported(tree):
    """The string entries of the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{path.name}:{line}: {name}"
        for name, line in module_imports(tree.body)
        if name not in used and name not in exported(tree)
    ]
    assert not unused, unused

