"""The package's export lists name only what exists."""

import importlib
import inspect
import pkgutil

import hzlag


def test_exports_resolve():
    modules = [importlib.import_module(f"hzlag.{m.name}")
               for m in pkgutil.iter_modules(hzlag.__path__)]
    exported = {}
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
            exported[name] = getattr(mod, name)
    # every public name of the package is a submodule's export, re-exported as is
    for name, obj in vars(hzlag).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        assert name in exported, f"hzlag.{name} is exported by no submodule"
        assert exported[name] is obj, f"hzlag.{name} is not the submodule's object"
