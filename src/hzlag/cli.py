"""Command-line front end: table generation, oracle queries, verification
suites, exact serialization, and a deterministic cache.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 internal error.  All output is byte-deterministic for identical
arguments; wall time is never serialized.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

from . import __version__

USAGE_ERROR = 2
INTERNAL_ERROR = 3

# hard bounds besides gen's (keep runaway requests from consuming the machine);
# "fab" bounds eval-fab's --a and --b (A = B = 300 took ~1.2 s and ~21 MB
# peak RSS on a 2-vCPU VM with Python 3.11); "identities" bounds verify's
# --amax, --bmax and --nmax, whose cost grows about as the fourth power of
# the bound (all three at 30/40/50/60 took 1.4/2.8/4.5/8.1 s and
# 25/32/41/55 MB peak RSS for the identities suite, same machine);
# "at_digits" bounds the digits of eval-fab's --at p and q (at A = B = 300,
# p and q of 1/100/200/300 digits took 0.59/0.82/1.39/2.33 s and ~21 MB peak
# RSS in a fresh process, 2-vCPU VM, Python 3.11.7)
GEN_LIMITS = {"k": 64, "order": 4000, "fab": 300, "identities": 50, "at_digits": 100}


class UsageError(ValueError):
    pass


def _check_range(flag: str, value: int, hi: int | None = None, lo: int = 0) -> None:
    """Reject an integer option below lo or above hi (None: no upper bound)."""
    if value < lo or (hi is not None and value > hi):
        span = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
        raise UsageError(f"--{flag} must be {span}, got {value}")


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def cache_dir() -> Path:
    env = os.environ.get("HZLAG_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hzlag"


# the layout of an entry; part of the cache key, so entries of another
# layout are recomputed, not read (2: the sha256 line before the bytes)
CACHE_FORMAT = 2


def cache_path(kind: str, args: dict) -> Path:
    key = json.dumps({"tool": __version__, "format": CACHE_FORMAT, "kind": kind, "args": args},
                     sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:32]
    return cache_dir() / f"{kind}-{digest}.json"


def cached_bytes(kind: str, args: dict, compute, use_cache: bool) -> bytes:
    """Return compute() (bytes), reading/writing the cache when enabled.

    An entry is the sha256 hex digest of the bytes, a newline, then the
    bytes.  A read returns the bytes only when they match the digest, and
    names the entry as corrupt otherwise."""
    if not use_cache:
        return compute()
    path = cache_path(kind, args)
    try:
        f = open(path, "rb", buffering=0)
    except (FileNotFoundError, NotADirectoryError):  # no entry yet
        pass
    else:
        with f:  # unbuffered: the bytes after the digest line are read once, into one object
            line, data = f.read(65), f.readall()
        if line != hashlib.sha256(data).hexdigest().encode() + b"\n":
            raise UsageError(f"corrupt cache entry {path}: it does not begin with the sha256 "
                             "digest of the rest; delete the file or pass --no-cache")
        return data
    data = compute()
    # write a temporary file next to the entry and rename it into place, so
    # the entry is either absent or complete, never partly written
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    except OSError as e:
        raise UsageError(
            f"cannot use cache directory {path.parent} ({e.strerror}); pass --no-cache") from e
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(hashlib.sha256(data).hexdigest().encode() + b"\n")
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return data


# ---------------------------------------------------------------------------
# table serialization
# ---------------------------------------------------------------------------

class Ensemble:
    """How `gen` bounds, builds, serializes and reloads one ensemble's table."""

    __slots__ = ("bounds", "keys", "builder", "table_class", "low", "size")

    def __init__(self, bounds: dict[str, int], keys: tuple[str, str], builder: str,
                 table_class: str, low: int = 0, size=None):
        self.bounds = bounds  # gen option -> its largest value, in build and table order
        self.keys = keys  # the index names of a table entry
        self.builder = builder  # bound values -> table
        self.table_class = table_class  # (*bound values, entries) -> table
        self.low = low  # smallest value every bound accepts
        self.size = size  # bound values -> about the bytes of the gen JSON, or None

    def build(self, *bounds):
        from . import recursions
        return getattr(recursions, self.builder)(*bounds)

    def table(self, *args):
        """Rebuild a table from a payload's bound values and entries."""
        from . import recursions
        return getattr(recursions, self.table_class)(*args)


def _laguerre_json_bytes(gmax: int, nmax: int) -> int:
    """About the size of the gen laguerre JSON (within 6% from 20/40 to
    1000/21), from the bounds alone, in integer arithmetic.

    For n >= 1, C_n^(g) has about 2n + log2((n+2g)!/n!) bits: the Catalan
    growth 4^n, and a factor of about (n+2g)^2 per genus step of "3-t".  With
    F[m] the bit length of m! and S[m] = F[1] + .. + F[m], row g holds
    about N(N+1) + S[N+2g] - S[2g] - S[N] bits (N = nmax); a bit is
    log10(2) digits, and an entry's JSON takes ~62 bytes besides its digits.
    """
    F, f = [0], 1
    for m in range(1, nmax + 2 * gmax + 1):
        f *= m
        F.append(f.bit_length())
    S = [0, *itertools.accumulate(F[1:])]
    bits = sum(nmax * (nmax + 1) + S[nmax + 2 * g] - S[2 * g] - S[nmax] for g in range(gmax + 1))
    return bits * 30103 // 100000 + 62 * (gmax + 1) * (nmax + 1)


# each builder and table class is named by a string and looked up in
# hzlag.recursions when it is called, so importing this module loads no engine
# and a rebinding of the module attribute (perfbench/tracer.py times the
# builders that way) reaches it.  The bounds keep a request within about
# 200 MB peak RSS; measured with --no-cache, each in a fresh process on one
# 2-vCPU VM (Python 3.11): `gen vk --gmax 150` took 3.5 s and 141 MB and
# wrote 39 MB, `gen gauss --gmax 300` 2.5 s, 168 MB and 54 MB (at 400:
# 7.1 s, 366 MB and 133 MB), `gen glag-k1 --rmax2 240 --nmax 480` 2.8 s,
# 208 MB and 62 MB.  A laguerre table's peak RSS follows its digits, not
# its bounds (150/300: 101 MB, 24 MB written; 200/400: 184 and 57; 250/500:
# 328 and 113; 500/100: 198 and 68; 1000/20: 155 and 55; 800/1: 26 and
# 1.7), about 25 MB plus 2.6 times the bytes written, so its request is
# bounded by the estimated size of its JSON, GEN_BYTES; its option bounds
# only keep that estimate cheap.  The largest accepted requests at gmax
# 100/200/400/1000 (nmax 962/432/138/21) took 207/199/187/169 MB and 2.0/
# 2.3/2.7/4.9 s and wrote 64/63/61/58 MB.
GEN_BYTES = 60_000_000
ENSEMBLES = {
    "laguerre": Ensemble({"gmax": 1000, "nmax": 2000}, ("g", "n"), "do_norbury_table",
                         "LagCTable", size=_laguerre_json_bytes),
    "gauss": Ensemble({"gmax": 300}, ("g", "k"), "gauss_hz_table", "GaussBTable", low=1),
    "vk": Ensemble({"gmax": 150}, ("g", "k"), "vk_table", "VTable"),
    "glag-k1": Ensemble({"rmax2": 240, "nmax": 480}, ("r2", "n"), "glag_k1_table",
                        "HalfGenusTable"),
}


def table_payload(ensemble: str, bounds: dict) -> dict:
    spec = ENSEMBLES[ensemble]
    table = spec.build(*(bounds[name] for name in spec.bounds))
    k1, k2 = spec.keys
    entries = [
        {k1: a, k2: b, "value": str(v)}
        for (a, b), v in sorted(table.entries.items())
    ]
    return {"schema": "hzlag-table/1", "ensemble": ensemble, "bounds": bounds, "entries": entries}


_ROWS = 4096  # entries serialized per write


def payload_to_json(payload: dict) -> bytes:
    """Exactly ``json.dumps(payload, sort_keys=True, indent=2) + "\n"``,
    encoded; the encoder renders only the fields around the entries, and
    each entry is written as its fixed block, keys in sorted order.  A value
    is str of an int or a Fraction, which JSON quoting leaves as it is."""
    head, tail = json.dumps({**payload, "entries": []}, sort_keys=True,
                            indent=2).split('"entries": []')
    entries = payload["entries"]
    if not entries:
        return f'{head}"entries": []{tail}\n'.encode()
    ka, kb = sorted(ENSEMBLES[payload["ensemble"]].keys)
    # the text before each of an entry's three values, at indent depth 2
    open_a, open_b, open_v = f'    {{\n      "{ka}": ', f',\n      "{kb}": ', ',\n      "value": "'
    buf = io.BytesIO()
    buf.write(f'{head}"entries": [\n'.encode())
    for i in range(0, len(entries), _ROWS):
        if i:
            buf.write(b",\n")
        buf.write(",\n".join([f'{open_a}{e[ka]}{open_b}{e[kb]}{open_v}{e["value"]}"\n    }}'
                              for e in entries[i:i + _ROWS]]).encode())
    buf.write(f"\n  ]{tail}\n".encode())
    return buf.getvalue()


@contextlib.contextmanager
def _open_out(out: str | None):
    """The ``--out`` file opened for binary writing, or stdout's byte stream
    (flushed when done, never closed)."""
    if out:
        try:
            f = open(out, "wb")
        except OSError as e:
            raise UsageError(f"cannot write --out {out} ({e.strerror})") from e
        with f:
            yield f
    else:
        sys.stdout.flush()  # text written before goes first
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()


_PIECE = 1 << 18  # bytes of gen JSON converted to CSV per write


def payload_to_csv(data: bytes, ensemble: str, out: str | None) -> None:
    """Write the gen JSON bytes of one table (as payload_to_json writes
    them) as CSV rows to the file ``out`` (None: stdout).

    Each entry is the five lines "{", its two keys in sorted order, its
    value and "}".  A row holds the keys in the ensemble's order and the
    value with an explicit denominator (``v`` if it has one, else
    ``v + "/1"``), which is ``rat_str_explicit(Fraction(v))``.  The bytes
    are converted a piece of about _PIECE bytes at a time, cut between two
    entries, so only one piece's rows are held at once.
    """
    k1, k2 = ENSEMBLES[ensemble].keys
    # offsets of k1's and k2's lines in an entry, and where their values start
    l1, l2 = (1, 2) if k1 < k2 else (2, 1)
    p1, p2 = len(k1) + 10, len(k2) + 10  # '      "k": '
    with _open_out(out) as f:
        f.write(f"{k1},{k2},value\n".encode())
        start = data.find(b'"entries": [\n')
        if start < 0:  # '"entries": []'
            return
        i, end = start + 14, data.rindex(b"\n  ]")
        while i < end:
            j = data.find(b"},\n", i + _PIECE, end)
            j = end if j < 0 else j + 1
            lines = data[i:j].decode().split("\n")
            f.write("".join([f"{a[p1:-1]},{b[p2:-1]},{v[16:-1]}{'' if '/' in v else '/1'}\n"
                             for a, b, v in zip(lines[l1::5], lines[l2::5], lines[3::5])])
                    .encode())
            i = j + 2


def payload_to_table(payload: dict):
    """Rebuild a table object from a parsed gen payload (the values are not
    re-checked: the verify suites re-check constraints on whatever the
    payload holds)."""
    from fractions import Fraction

    spec = ENSEMBLES[payload["ensemble"]]
    k1, k2 = spec.keys
    entries = {(e[k1], e[k2]): Fraction(e["value"]) for e in payload["entries"]}
    return spec.table(*(payload["bounds"][name] for name in spec.bounds), entries)


def table_bytes(ensemble: str, bounds: dict, use_cache: bool) -> bytes:
    """The gen JSON of one table, through the cache when enabled."""
    return cached_bytes("gen", {"ensemble": ensemble, **bounds},
                        lambda: payload_to_json(table_payload(ensemble, bounds)), use_cache)


def load_table(ensemble: str, bounds: dict, use_cache: bool):
    return payload_to_table(json.loads(table_bytes(ensemble, bounds, use_cache)))


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def suite_identities(args) -> RunReport:
    from .reports import RunReport
    from .residues import IDENTITY_TAGS, verify_identity

    rep = RunReport("identities", tool_version=__version__)
    for tag in IDENTITY_TAGS:
        rep.extend(verify_identity(tag, args.amax, args.bmax, args.nmax))
    return rep


def suite_odes(args) -> RunReport:
    from .reports import RunReport
    from .residues import verify_ode, verify_t1

    rep = RunReport("odes", tool_version=__version__)
    for N in range(1, min(args.nmax, 10) + 1):
        rep.checks.append(verify_ode("DN", N))
    for N in range(1, min(args.nmax, 8) + 1):
        rep.checks.append(verify_ode("K1", N))
    for N in range(1, min(args.nmax, 6) + 1):
        rep.checks.append(verify_ode("K2", N))
    for N in range(1, min(args.nmax, 6) + 1):
        for k in range(3):
            rep.checks.append(verify_t1(N, k))
    return rep


def suite_crosscheck(args) -> RunReport:
    from fractions import Fraction

    from .recursions import do_norbury_table, gauss_gue_check, glag_moment_from_table
    from .reports import RunReport, record
    from .residues import exp_mean_moments, two_point_series
    from .spectral import w11_check, w30_planar_check
    from .wick import complex_wishart_moment, connected_moments, genus_extract

    rep = RunReport("crosscheck", tool_version=__version__)
    mmax = min(args.mmax, 6)
    # one-point: residue route vs Wick oracle
    for N in range(1, 6):
        mom = exp_mean_moments(N, mmax)
        for m in range(mmax + 1):
            want = complex_wishart_moment((m,))(N) if m else Fraction(N)
            rep.checks.append(
                record(f"rep-N-wick[N={N},m={m}]", "rep-N", mom[m] == want,
                       f"residue {mom[m]} wick {want}")
            )
    # genus grading of the symbolic oracle vs the recursion table
    dn = do_norbury_table(3, mmax)
    for m in range(1, mmax + 1):
        ge = genus_extract(complex_wishart_moment((m,)), 1)
        ok = all(dn.value(g, m - 2 * g) == c for g, c in ge.items())
        rep.checks.append(record(f"3-t-wick[m={m}]", "3-t", ok, f"grading {ge}"))
        total = sum(dn.value(g, m - 2 * g) for g in range(m // 2 + 1))
        rep.checks.append(
            record(f"gamma-collapse[m={m}]", "rep-N",
                   total == math.factorial(m), f"sum {total}")
        )
    # two-point: residue route vs connected Wick oracle
    for N in range(1, 4):
        tp = two_point_series(N, 5)
        ok, detail = True, ""
        for m1 in range(6):
            for m2 in range(6 - m1):
                if m1 == m2 == 0:
                    continue
                got = tp.coefficient(m1, m2)
                if min(m1, m2) == 0:
                    want = Fraction(0)  # connected part against tr(1) vanishes
                else:
                    want = connected_moments((m1, m2))(N) / (
                        math.factorial(m1) * math.factorial(m2))
                if got != want:
                    ok, detail = False, f"(m1={m1},m2={m2}): {got} vs {want}"
                    break
        rep.checks.append(record(f"W2-wick[N={N}]", "W2", ok, detail))
    # Gaussian branch vs pairing oracle
    rep.extend(gauss_gue_check(load_table("gauss", {"gmax": 3}, args.cache), 12))
    # rectangular k = 1 branch vs Wick oracle
    ht = load_table("glag-k1", {"rmax2": 5, "nmax": 8}, args.cache)
    for m in range(1, 6):
        got = glag_moment_from_table(ht, m)
        want = complex_wishart_moment((m,), "N", "N+1")
        rep.checks.append(
            record(f"8-t-wick[m={m}]", "8-t", got == want, f"table {got} wick {want}")
        )
    # closed forms
    rep.extend(w11_check(7))
    ratios = {t: w30_planar_check(*t) for t in ((1, 1, 1), (2, 1, 1), (2, 2, 1))}
    rep.checks.append(
        record("W30[constant-ratio]", "W30", all(r == 2 for r in ratios.values()),
               f"ratios {ratios}")
    )
    return rep


def suite_constraints(args) -> RunReport:
    from .recursions import asym_moments, glag_w1_ode_check, laguerre_ode_check
    from .reports import RunReport, record
    from .spectral import a_to_C, consistency_identity_check

    rep = RunReport("constraints", tool_version=__version__)
    gmax = min(args.gmax, 6)
    vt = load_table("vk", {"gmax": gmax}, args.cache)
    rep.extend(consistency_identity_check(vt, gmax))
    for g in range(1, gmax + 1):
        row = vt.row(g)
        for r, s in enumerate(asym_moments(row, 2 * g + 1)):
            rep.checks.append(
                record(f"asym-r[g={g},r={r}]", "asym-r", s == 0, f"moment {s}")
            )
    # a-row expansion vs three-term recursion table
    dn = load_table("laguerre", {"gmax": 5, "nmax": 20}, args.cache)
    for g in range(min(gmax, 5) + 1):
        cs = a_to_C(vt.row(g), g, 20)
        ok = all(cs[n] == dn.value(g, n) for n in range(21))
        rep.checks.append(
            record(f"a-to-C[g={g}]", "rec-v2", ok, f"row expansion {cs[:6]}...")
        )
    # operator-equation verifiers
    rep.extend(laguerre_ode_check(load_table("laguerre", {"gmax": 3, "nmax": 10}, args.cache)))
    rep.extend(glag_w1_ode_check(load_table("glag-k1", {"rmax2": 4, "nmax": 8}, args.cache)))
    # integrality expectations
    for name, table in (
        ("laguerre", dn),
        ("gauss", load_table("gauss", {"gmax": min(args.gmax, 8)}, args.cache)),
    ):
        bad = table.integrality_violations()
        rep.checks.append(
            record(f"integrality[{name}]", "C1g", not bad, f"violations {bad[:5]}")
        )
    return rep


SUITES = {
    "identities": suite_identities,
    "odes": suite_odes,
    "crosscheck": suite_crosscheck,
    "constraints": suite_constraints,
}

# the verify options that set each suite's window
SUITE_BOUNDS = {
    "identities": ("amax", "bmax", "nmax"),
    "odes": ("nmax",),
    "crosscheck": ("mmax",),
    "constraints": ("gmax",),
}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _write_out(data: bytes, out: str | None) -> None:
    with _open_out(out) as f:
        f.write(data)


def cmd_gen(args) -> int:
    ensemble = args.ensemble
    spec = ENSEMBLES[ensemble]
    bounds = {name: getattr(args, name) for name in spec.bounds}
    for name, v in bounds.items():
        if v is None:
            raise UsageError(f"gen {ensemble} requires --{name}")
        _check_range(name, v, hi=spec.bounds[name], lo=spec.low)
    size = spec.size(*bounds.values()) if spec.size else 0
    if size > GEN_BYTES:
        flags = " ".join(f"--{name} {v}" for name, v in bounds.items())
        raise UsageError(f"gen {ensemble} {flags} would write about {size // 10**6} MB, "
                         f"over the {GEN_BYTES // 10**6} MB limit")
    data = table_bytes(ensemble, bounds, not args.no_cache)
    if args.format == "json":
        _write_out(data, args.out)
    else:
        payload_to_csv(data, ensemble, args.out)
    return 0


def cmd_oracle(args) -> int:
    from .wick import WISHART_DEGREE_LIMIT, complex_wishart_moment, connected_moments, parse_dimension

    try:
        pattern = tuple(int(p) for p in args.mu.split(","))
    except ValueError as e:
        raise UsageError(f"bad --mu {args.mu!r}") from e
    if min(pattern) < 1:
        raise UsageError(f"--mu entries must be positive, got {args.mu!r}")
    if sum(pattern) > WISHART_DEGREE_LIMIT:
        raise UsageError(
            f"--mu total degree {sum(pattern)} exceeds limit {WISHART_DEGREE_LIMIT}")
    for flag, spec in (("rows", args.rows), ("cols", args.cols)):
        try:
            parse_dimension(spec)
        except ValueError as e:
            raise UsageError(f"bad --{flag} {spec!r} (expected N, N+k or N-k)") from e
    fn = connected_moments if args.connected else complex_wishart_moment
    print(fn(pattern, args.rows, args.cols))
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for flag in ("amax", "bmax", "nmax"):
        _check_range(flag, getattr(args, flag), hi=GEN_LIMITS["identities"])
    for flag in ("gmax", "mmax"):
        _check_range(flag, getattr(args, flag))
    if "constraints" in names and args.gmax < 1:
        raise UsageError(f"suite constraints needs --gmax >= 1, got {args.gmax}")
    reports = []
    for n in names:
        reports.append(SUITES[n](args))
        if not reports[-1].checks:
            bounds = " ".join(f"--{b} {getattr(args, b)}" for b in SUITE_BOUNDS[n])
            raise UsageError(f"suite {n} runs no checks at {bounds}")
    payload = {
        "schema": "hzlag-report/1",
        "tool_version": __version__,
        "suites": [r.to_dict() for r in reports],
    }
    if args.out:
        _write_out((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode(), args.out)
    ok = True
    for r in reports:
        fails = r.failures()
        print(f"suite {r.suite}: {len(r.checks)} checks, {len(fails)} failures")
        for c in sorted(fails, key=lambda c: c.id):
            print(f"  FAIL {c.id} anchor={c.anchor} {c.detail}")
            ok = False
    return 0 if ok else 1


def cmd_series(args) -> int:
    from .spectral import s_series, vk_series

    _check_range("k", args.k, hi=GEN_LIMITS["k"])
    _check_range("order", args.order, hi=GEN_LIMITS["order"])
    if args.which == "vk":
        ser = vk_series(args.k, args.order)
    else:
        if args.beta is None:
            raise UsageError("series skb requires --beta")
        ser = s_series(args.k, args.beta, args.order)
    # exponents of x, descending (ser[m] is the coefficient of x^-m), from
    # the leading term, or only the last one when the series is zero so far
    first = next((m for m, c in enumerate(ser) if c), args.order)
    items = [{"exponent": -m, "value": str(ser[m])} for m in range(first, args.order + 1)]
    _write_out((json.dumps(items, indent=2) + "\n").encode(), args.out)
    return 0


# an eval-fab --at point: an integer p or a fraction p/q, in ASCII digits
_POINT = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def _parse_point(text: str):
    """The Fraction an --at point names, its p and q within the digit limit."""
    from fractions import Fraction

    m = _POINT.fullmatch(text)
    if not m:
        raise UsageError(f"bad --at {text!r} (expected p or p/q, in ASCII digits)")
    p, q = m[2], m[3] or "1"
    limit = GEN_LIMITS["at_digits"]
    if max(len(p), len(q)) > limit:
        raise UsageError(f"--at p and q must have at most {limit} digits each")
    if int(q) == 0:
        raise UsageError(f"bad --at {text!r} (zero denominator)")
    return Fraction(int(m[1] + p), int(q))


def cmd_eval_fab(args) -> int:
    from .residues import fab

    _check_range("a", args.a, hi=GEN_LIMITS["fab"])
    _check_range("b", args.b, hi=GEN_LIMITS["fab"])
    if args.at is not None:
        point = _parse_point(args.at)
    value = fab(args.a, args.b)
    if args.at is None:
        print(value)
        return 0
    try:
        print(value(point))
    except ZeroDivisionError as e:
        raise UsageError(f"f_{{{args.a},{args.b}}} has a pole at {args.at}") from e
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hzlag", description=__doc__)
    p.add_argument("--version", action="version", version=f"hzlag {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an exact table")
    g.add_argument("ensemble", choices=list(ENSEMBLES))
    g.add_argument("--gmax", type=int)
    g.add_argument("--nmax", type=int)
    g.add_argument("--rmax2", type=int, help="doubled half-genus bound 2r")
    g.add_argument("--format", choices=("json", "csv"), default="json")
    g.add_argument("--out")
    g.add_argument("--no-cache", action="store_true")
    g.set_defaults(fn=cmd_gen)

    o = sub.add_parser("oracle", help="brute-force Wick moment")
    o.add_argument("--mu", required=True, help="comma-separated trace exponents")
    o.add_argument("--rows", default="N")
    o.add_argument("--cols", default="N")
    o.add_argument("--connected", action="store_true")
    o.set_defaults(fn=cmd_oracle)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    v.add_argument("--amax", type=int, default=10)
    v.add_argument("--bmax", type=int, default=10)
    v.add_argument("--nmax", type=int, default=10)
    v.add_argument("--gmax", type=int, default=6)
    v.add_argument("--mmax", type=int, default=6)
    v.add_argument("--no-cache", dest="cache", action="store_false")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("series", help="export a basis series as JSON")
    s.add_argument("which", choices=("vk", "skb"))
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--beta", type=int, choices=(0, 1))
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_series)

    e = sub.add_parser("eval-fab", help="print or evaluate f_{A,B}(u)")
    e.add_argument("--a", type=int, required=True)
    e.add_argument("--b", type=int, required=True)
    e.add_argument("--at", help="rational point p/q to evaluate at")
    e.set_defaults(fn=cmd_eval_fab)
    return p


def main(argv: list[str] | None = None) -> int:
    # entries outgrow CPython's int <-> str digit limit (absent before 3.10.7)
    if getattr(sys, "set_int_max_str_digits", None):
        sys.set_int_max_str_digits(0)
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        return 0
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
