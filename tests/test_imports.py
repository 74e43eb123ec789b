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


# The package graph: the three routes (residues, recursions and the Wick
# oracles) import none of each other, so they meet only in verify's
# crosscheck suite; the residue route and the oracles share only the
# arithmetic layer ``exact``, and the table engines import no other module
# of the package.  The routes return values and import no
# check records: only verify judges them.  tables serves the gen tables and
# reads them back for verify; cli, the parser and its handlers, loads the
# rest.  A new edge between routes has to be made here on purpose.
PACKAGE_GRAPH = {
    "cli": {"tables", "verify", "residues", "recursions", "wick"},
    "tables": {"engines"},
    "verify": {"tables", "engines", "residues", "recursions", "wick"},
    "engines": set(),
    "exact": set(),
    "residues": {"exact"},
    "recursions": {"engines"},
    "wick": {"exact"},
}


def package_imports(source: str) -> set[str]:
    """The package modules a source imports, at module level or inside
    functions, relatively or by the name hzlag, by an import statement or by
    ``import_module`` of a constant name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("hzlag")):
            path = node.module.split(".") if node.module else []
            path = path if node.level else path[1:]
            # ``from . import __version__`` reads the package, not a module
            out |= {path[0]} if path else {a.name for a in node.names if a.name[:2] != "__"}
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("hzlag.")}
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "import_module"
              and isinstance(node.args[0], ast.Constant)):
            name = node.args[0].value
            if name.startswith((".", "hzlag.")):
                out.add(name.split(".")[1])
    return out


def test_package_import_graph():
    src = ROOT / "src" / "hzlag"
    assert set(PACKAGE_GRAPH) == {p.stem for p in src.glob("*.py")} - {"__init__"}
    graph = {name: package_imports((src / f"{name}.py").read_text()) for name in PACKAGE_GRAPH}
    assert graph == PACKAGE_GRAPH
    # no module imports cli: under ``python -m hzlag.cli`` that import would
    # compile and run cli.py a second time, as a module of another name
    assert not any("cli" in imported for imported in graph.values())


def test_package_imports_are_found():
    source = (
        "from .exact import Laurent\n"
        "from . import engines\n"
        "import hzlag.wick\n"
        "from hzlag.recursions import a_row_series\n"
        "from . import __version__\n"
        "def f():\n"
        "    from .residues import fab\n"
        "    return fab, importlib.import_module('.tables', __package__)\n"
        "verify = importlib.import_module('hzlag.verify')\n"
    )
    assert package_imports(source) == {"exact", "engines", "wick", "recursions", "residues",
                                       "tables", "verify"}
