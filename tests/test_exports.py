"""The package's export lists name only what exists, and the package
resolves each of them lazily to the submodule's object."""

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
    from hzlag import fab, vk_table

    assert fab is hzlag.residues.fab and vk_table is hzlag.recursions.vk_table


@pytest.mark.parametrize("name", ["no_such_name", "_private", "__wrapped__", "lag_moment"])
def test_unknown_name_raises(name):
    with pytest.raises(AttributeError, match=name):
        getattr(hzlag, name)
    assert not hasattr(hzlag, name)


def test_bare_import_loads_no_submodule():
    # and naming a submodule loads that one alone
    src_root = pathlib.Path(hzlag.__file__).resolve().parent.parent
    loaded = "sorted(m for m in sys.modules if m.startswith('hzlag.'))"
    r = subprocess.run(
        [sys.executable, "-c",
         f"import sys, hzlag; print({loaded}); print(hzlag.wick.__name__, {loaded})"],
        capture_output=True, env={"PATH": "", "PYTHONPATH": str(src_root)})
    assert r.returncode == 0, r.stderr
    assert r.stdout.decode().splitlines() == ["[]", "hzlag.wick ['hzlag.wick']"]
