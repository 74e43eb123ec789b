"""hzlag: exact moment tables and cross-verification suites for Laguerre
and Gaussian random-matrix ensembles.

Three independent computation routes — contour-integral residues, computed
in closed form as integer Laurent polynomials in w = u - 1, genus-graded
recursions, and Wick contractions counted by Tutte's loop equations —
compute the same quantities and are checked against each other with exact
equality throughout.

Importing the package loads none of its submodules.  ``hzlag.<name>``
resolves, on use, to the submodule of that name or to the object a
submodule lists in its ``__all__`` (the lists are disjoint), so
``from hzlag import fab`` is ``hzlag.residues.fab``.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    """PEP 562 lookup of a name this module does not hold; it is never
    stored here, so the submodule's current binding is what is returned."""
    if name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    import pkgutil

    submodules = [m.name for m in pkgutil.iter_modules(__path__)]
    if name in submodules:
        return importlib.import_module(f"{__name__}.{name}")
    for sub in submodules:
        if sub in ("cli", "tables", "verify"):  # they export nothing: loading them costs time
            continue
        mod = importlib.import_module(f"{__name__}.{sub}")
        if name in getattr(mod, "__all__", ()):
            return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

