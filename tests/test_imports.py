"""Every module of the package and of scripts/ uses each name it imports."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "hzlag").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _scopes(tree: ast.Module):
    """The module and each function in it, one scope each."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_imports(scope):
    """The import statements of a scope, not those of the functions in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _bound_names(node) -> list[str]:
    """The names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [a.asname or a.name.split(".")[0] for a in node.names]


def _used_names(scope) -> set[str]:
    """The names a scope reads, in code or in string annotations, and the
    names its ``__all__`` re-exports."""
    used = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # __all__ entries
            try:
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return used


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each imported name its scope never uses."""
    tree = ast.parse(source)
    out = []
    for scope in _scopes(tree):
        used = _used_names(scope)
        for node in _own_imports(scope):
            out += [f"{node.lineno}: {name}" for name in _bound_names(node) if name not in used]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import importlib.util\n"
        "from fractions import Fraction as F\n"
        "__all__ = ['sys']\n"
        "def f(x: 'F') -> None:\n"
        "    import json\n"
        "    from math import gcd\n"
        "    return gcd(x, 2), importlib.util\n"
        "def g():\n"
        "    return json\n"
    )
    assert unused_imports(source) == ["2: os", "7: json"]
