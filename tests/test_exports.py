"""The package's export lists name only what exists, and the package
resolves each of them lazily to the submodule's object."""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import hzlag


def _exports() -> dict:
    """Each name in a submodule's ``__all__`` -> the submodules listing it."""
    owners: dict = {}
    for info in pkgutil.iter_modules(hzlag.__path__):
        mod = importlib.import_module(f"hzlag.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
            owners.setdefault(name, []).append(mod)
    return owners


def test_exports_resolve():
    owners = _exports()
    assert owners
    for name, mods in owners.items():
        assert len(mods) == 1, f"{name!r} is exported by {[m.__name__ for m in mods]}"
        assert getattr(hzlag, name) is getattr(mods[0], name), f"hzlag.{name}"
    from hzlag import IntegralityError, fab, int2_residuals, vk_items

    assert fab is hzlag.residues.fab and int2_residuals is hzlag.recursions.int2_residuals
    # the engines' names resolve to hzlag.engines, which alone exports them
    assert vk_items is hzlag.engines.vk_items
    assert IntegralityError is hzlag.engines.IntegralityError
    assert {"do_norbury_items", "gauss_hz_items", "vk_items", "glag_k1_items",
            "ConstraintError", "IntegralityError"} <= set(hzlag.engines.__all__)


@pytest.mark.parametrize("name", ["no_such_name", "_private", "__wrapped__", "lag_moment"])
def test_unknown_name_raises(name):
    with pytest.raises(AttributeError, match=name):
        getattr(hzlag, name)
    assert not hasattr(hzlag, name)


def _fresh_process_lines(code: str) -> list[str]:
    """The stdout lines of code run in a fresh interpreter that imports the
    package from this tree; ``loaded()`` is the sorted list of the package's
    submodules it has loaded."""
    src_root = pathlib.Path(hzlag.__file__).resolve().parent.parent
    loaded = "def loaded(): return sorted(m for m in sys.modules if m.startswith('hzlag.'))\n"
    r = subprocess.run(
        [sys.executable, "-c", f"import sys\n{loaded}{code}"],
        capture_output=True,
        # PYTHONDONTWRITEBYTECODE or -B here: the child writes no bytecode either
        env={"PATH": "", "PYTHONPATH": str(src_root),
             **({"PYTHONDONTWRITEBYTECODE": "1"} if sys.dont_write_bytecode else {})})
    assert r.returncode == 0, r.stderr
    return r.stdout.decode().splitlines()


def test_bare_import_loads_no_submodule():
    # and naming a submodule loads that one and what it imports alone
    assert _fresh_process_lines(
        "import hzlag; print(loaded()); print(hzlag.wick.__name__, loaded())"
    ) == ["[]", "hzlag.wick ['hzlag.exact', 'hzlag.wick']"]
    # an exported name loads the submodules scanned up to its owner, never
    # cli, tables or verify, which export nothing
    assert _fresh_process_lines("from hzlag import vk_items; print(loaded())") == [
        "['hzlag.engines']"]
    (line,) = _fresh_process_lines("from hzlag import gue_moment; print(loaded())")
    loaded = set(ast.literal_eval(line))
    assert "hzlag.wick" in loaded and not {"hzlag.cli", "hzlag.tables", "hzlag.verify"} & loaded
