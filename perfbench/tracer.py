"""In-process tracing of calls into hzlag's public functions.

The benchmark's child process imports this module, then calls
``Tracer.install()``, which wraps every public function and method of the
hzlag modules and rebinds each ``hzlag.*`` attribute that holds the
original object (``cli`` imports ``fab``, the table builders and others by
name, so patching only the defining module would miss those calls).

Every call is aggregated per name: a call count, self time (duration minus
the time of traced calls made inside it) and inclusive time.  Hot kernel
calls (tens of thousands of ``UniPoly.gcd`` and ``RationalFunction`` builds
per verify run) are therefore never stored one by one.  Only calls near the
top of the stack (``cli.main`` and what it calls directly, two levels deep)
are kept as spans.

``METRICS`` maps each per-layer metric to the traced names it sums.  A
metric whose names are all missing from the package (deleted by a refactor)
is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import inspect
import json
import time

# module -> layer; ``reports`` is too small to measure and counts under cli
LAYERS = {
    "hzlag.exact": "exact",
    "hzlag.residues": "residues",
    "hzlag.recursions": "recursions",
    "hzlag.spectral": "spectral",
    "hzlag.wick": "wick",
    "hzlag.cli": "cli",
    "hzlag.reports": "cli",
}

# rat_str and rat_str_explicit only format one number for output; their time
# counts as serialization in the calling cli function, not as exact work
SKIP = {"exact.rat_str", "exact.rat_str_explicit"}

# dunder methods that do arithmetic work (comparison, hashing and printing
# are left to the caller's span)
DUNDERS = {
    "__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
    "__mod__", "__divmod__", "__pow__", "__neg__",
}

SPAN_DEPTH = 2  # keep spans for cli.main and two levels below it
SPAN_CAP = 10000

# metric -> (field, traced names); field "calls" counts calls, "self" sums
# self time, "incl" sums inclusive time
METRICS = {
    "exact.gcd.calls": ("calls", ["exact.UniPoly.gcd"]),
    "exact.gcd.self_s": ("self", ["exact.UniPoly.gcd"]),
    "exact.ratfunc.calls": ("calls", ["exact.RationalFunction.__init__"]),
    "exact.ratfunc.self_s": ("self", ["exact.RationalFunction.__init__"]),
    "exact.derivative.self_s": (
        "self", ["exact.UniPoly.derivative", "exact.RationalFunction.derivative"]),
    "exact.series_of_rational.self_s": ("self", ["exact.series_of_rational"]),
    "exact.binom.self_s": ("self", ["exact.gen_binom", "exact.binom_series"]),
    "residues.fab.calls": ("calls", ["residues.fab"]),
    "residues.fab.self_s": ("self", ["residues.fab"]),
    "residues.verify_identity.self_s": ("self", ["residues.verify_identity"]),
    "residues.verify_ode.self_s": ("self", ["residues.verify_ode"]),
    "residues.verify_t1.self_s": ("self", ["residues.verify_t1"]),
    "residues.fab_generalized.self_s": ("self", ["residues.fab_generalized"]),
    "residues.exp_mean_moments.self_s": ("self", ["residues.exp_mean_moments"]),
    "residues.two_point_series.self_s": ("self", ["residues.two_point_series"]),
    "recursions.do_norbury_table.self_s": ("self", ["recursions.do_norbury_table"]),
    "recursions.gauss_hz_table.self_s": ("self", ["recursions.gauss_hz_table"]),
    "recursions.vk_table.self_s": ("self", ["recursions.vk_table"]),
    "recursions.glag_k1_table.self_s": ("self", ["recursions.glag_k1_table"]),
    "recursions.checks.self_s": (
        "self", ["recursions.laguerre_ode_check", "recursions.glag_w1_ode_check",
                 "recursions.gauss_gue_check"]),
    "cli.table_payload.self_s": ("self", ["cli.table_payload"]),
    "cli.payload_to_json.self_s": ("self", ["cli.payload_to_json"]),
    "cli.payload_to_table.self_s": ("self", ["cli.payload_to_table"]),
    "cli.payload_to_csv.self_s": ("self", ["cli.payload_to_csv"]),
    "cli.suite.identities.s": ("incl", ["cli.suite_identities"]),
    "cli.suite.odes.s": ("incl", ["cli.suite_odes"]),
    "cli.suite.crosscheck.s": ("incl", ["cli.suite_crosscheck"]),
    "cli.suite.constraints.s": ("incl", ["cli.suite_constraints"]),
    "wick.complex_wishart_moment.calls": ("calls", ["wick.complex_wishart_moment"]),
    "wick.complex_wishart_moment.self_s": ("self", ["wick.complex_wishart_moment"]),
    "wick.connected_moments.calls": ("calls", ["wick.connected_moments"]),
    "wick.connected_moments.self_s": ("self", ["wick.connected_moments"]),
    "wick.gue_moment.self_s": ("self", ["wick.gue_moment"]),
    "wick.genus_extract.self_s": ("self", ["wick.genus_extract"]),
    "spectral.a_to_C.self_s": ("self", ["spectral.a_to_C"]),
    "spectral.checks.self_s": (
        "self", ["spectral.consistency_identity_check", "spectral.w11_check",
                 "spectral.w30_planar_check"]),
}

# table builders whose results count towards recursions.entries
BUILDERS = {"recursions.do_norbury_table", "recursions.gauss_hz_table",
            "recursions.vk_table", "recursions.glag_k1_table"}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, incl_s]
        self.stack: list[float] = []  # child time of each open call
        self.spans: list[tuple] = []  # (name, start, end, depth)
        self.top_s = 0.0  # time inside outermost traced calls
        self.import_s = 0.0
        self.entries = 0
        self.cache = {"hits": 0, "misses": 0, "read_s": 0.0, "write_s": 0.0}
        self.fab = None

    # -- installation ------------------------------------------------------

    def install(self):
        """Import hzlag.cli (timed), wrap the public names, return hzlag.cli."""
        t0 = time.perf_counter()
        cli = importlib.import_module("hzlag.cli")
        self.import_s = time.perf_counter() - t0
        self.top_s += self.import_s
        modules = {name: importlib.import_module(name) for name in LAYERS
                   if importlib.util.find_spec(name) is not None}
        replaced: dict[int, tuple] = {}  # id -> (original, wrapper)
        for modname, mod in modules.items():
            layer = LAYERS[modname]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                key = f"{layer}.{name}"
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, key)
                elif callable(obj) and key not in SKIP and not inspect.isgeneratorfunction(obj):
                    if key == "residues.fab":
                        self.fab = obj
                    replaced[id(obj)] = (obj, self._wrapper(obj, key))
        # rebind every hzlag.* attribute, and every value of a module-level
        # dict (registries such as cli.SUITES), that holds a wrapped function
        def rebind(items, store):
            for name, obj in list(items):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    store(name, hit[1])

        for mod in [*modules.values(), importlib.import_module("hzlag")]:
            rebind(vars(mod).items(), functools.partial(setattr, mod))
            for table in [v for k, v in vars(mod).items()
                          if type(v) is dict and not k.startswith("__")]:
                rebind(table.items(), table.__setitem__)
        return cli

    def _wrap_class(self, cls, prefix: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            key = f"{prefix}.{name}"
            if isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self._wrapper(raw.__func__, key)))
            elif isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrapper(raw.__func__, key)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, name, self._wrapper(raw, key))

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, fn, key: str):
        """Time ``fn`` under ``key``; the two names whose results are counted
        get an extra hook around the timed call."""
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt - stack.pop()
                stats[2] += dt
                depth = len(stack)
                if depth:
                    stack[-1] += dt
                else:
                    tracer.top_s += dt
                if depth <= SPAN_DEPTH and len(spans) < SPAN_CAP:
                    spans.append((key, t0, t0 + dt, depth))

        if key == "cli.cached_bytes":
            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                args, kwargs, flag = _watch_compute(args, kwargs)
                before = stats[1]
                result = timed(*args, **kwargs)
                if flag[1]:
                    count, time_key = ("misses", "write_s") if flag[0] else ("hits", "read_s")
                    tracer.cache[count] += 1
                    tracer.cache[time_key] += stats[1] - before
                return result
            return hooked
        if key in BUILDERS:
            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                result = timed(*args, **kwargs)
                tracer.entries += len(getattr(result, "entries", ()))
                return result
            return hooked
        return timed

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        fab_misses = None
        if self.fab is not None and hasattr(self.fab, "cache_info"):
            fab_misses = self.fab.cache_info().misses
        data = {
            "import_s": self.import_s,
            "top_s": self.top_s,
            "stats": self.stats,
            "entries": self.entries,
            "cache": self.cache if "cli.cached_bytes" in self.stats else None,
            "fab_misses": fab_misses,
            "spans": self.spans,
        }
        with open(path, "w") as f:
            json.dump(data, f)


def _watch_compute(args, kwargs):
    """Replace the compute callback of ``cached_bytes(kind, args, compute,
    use_cache)`` by one that records whether it ran, which tells a cache
    miss from a hit without depending on how the cache stores entries.

    Returns the new arguments and ``[computed, use_cache]``.
    """
    flag = [False, True]
    args = list(args)

    def watch(compute):
        def run(*a, **k):
            flag[0] = True
            return compute(*a, **k)
        return run

    for i, a in enumerate(args):
        if callable(a):
            args[i] = watch(a)
            if i + 1 < len(args) and isinstance(args[i + 1], bool):
                flag[1] = args[i + 1]
            break
    else:
        for k, v in kwargs.items():
            if callable(v):
                kwargs = {**kwargs, k: watch(v)}
                break
    if "use_cache" in kwargs:
        flag[1] = bool(kwargs["use_cache"])
    return tuple(args), kwargs, flag
