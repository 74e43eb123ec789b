"""Command-line front end: table generation, oracle queries, verification
suites, exact serialization, and a deterministic cache.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 internal error.  All output is byte-deterministic for identical
arguments; wall time is never serialized.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import __version__
from .exact import rat_str_explicit
from .recursions import (
    GaussBTable,
    HalfGenusTable,
    LagCTable,
    VTable,
    asym_moments,
    do_norbury_table,
    gauss_gue_check,
    gauss_hz_table,
    glag_k1_table,
    glag_moment_from_table,
    glag_w1_ode_check,
    lag_moment_from_table,
    laguerre_ode_check,
    vk_table,
)
from .reports import RunReport, record
from .residues import (
    IDENTITY_TAGS,
    exp_mean_moments,
    fab,
    two_point_series,
    verify_identity,
    verify_ode,
    verify_t1,
)
from .spectral import a_to_C, consistency_identity_check, s_series, vk_series, w11_check, w30_planar_check
from .wick import (
    WISHART_DEGREE_LIMIT,
    complex_wishart_moment,
    connected_moments,
    genus_extract,
    gue_moment,
    parse_dimension,
)

USAGE_ERROR = 2
INTERNAL_ERROR = 3

# hard bounds besides gen's (keep runaway requests from consuming the machine);
# "fab" bounds eval-fab's --a and --b (A = B = 300 took ~1.2 s and ~21 MB
# peak RSS on a 2-vCPU VM with Python 3.11); "identities" bounds verify's
# --amax, --bmax and --nmax, whose cost grows about as the fourth power of
# the bound (all three at 30/40/50/60 took 1.4/2.8/4.5/8.1 s and
# 25/32/41/55 MB peak RSS for the identities suite, same machine)
GEN_LIMITS = {"k": 64, "order": 4000, "fab": 300, "identities": 50}


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


def cache_path(kind: str, args: dict) -> Path:
    key = json.dumps({"tool": __version__, "kind": kind, "args": args}, sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:32]
    return cache_dir() / f"{kind}-{digest}.json"


def cached_bytes(kind: str, args: dict, compute, use_cache: bool) -> bytes:
    """Return compute() (bytes), reading/writing the cache when enabled."""
    if not use_cache:
        return compute()
    path = cache_path(kind, args)
    if path.exists():
        return path.read_bytes()
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
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return data


# ---------------------------------------------------------------------------
# table serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ensemble:
    """How `gen` bounds, builds, serializes and reloads one ensemble's table."""

    bounds: dict[str, int]  # gen option -> its largest value, in build and table order
    keys: tuple[str, str]  # the index names of a table entry
    build: Callable  # bound values -> table
    table: type  # table(*bound values, entries) rebuilds a table from a payload
    low: int = 0  # smallest value every bound accepts


# each builder is looked up by name when it is called, so a rebinding of the
# module attribute (perfbench/tracer.py times the builders that way) reaches it;
# `gen vk --gmax 150` took 7.3 s, 205 MB peak RSS and wrote 39 MB in a fresh
# process (2-vCPU VM, Python 3.11); the other gen bounds predate calibration
ENSEMBLES = {
    "laguerre": Ensemble({"gmax": 1000, "nmax": 2000}, ("g", "n"),
                         lambda gmax, nmax: do_norbury_table(gmax, nmax), LagCTable),
    "gauss": Ensemble({"gmax": 1000}, ("g", "k"), lambda gmax: gauss_hz_table(gmax),
                      GaussBTable, low=1),
    "vk": Ensemble({"gmax": 150}, ("g", "k"), lambda gmax: vk_table(gmax), VTable),
    "glag-k1": Ensemble({"rmax2": 400, "nmax": 2000}, ("r2", "n"),
                        lambda rmax2, nmax: glag_k1_table(rmax2, nmax), HalfGenusTable),
}


def table_payload(ensemble: str, bounds: dict) -> dict:
    spec = ENSEMBLES[ensemble]
    table = spec.build(*(bounds[name] for name in spec.bounds))
    k1, k2 = spec.keys
    entries = [
        {k1: a, k2: b, "value": str(v)}
        for (a, b), v in sorted(table.entries.items())
    ]
    return {
        "schema": "hzlag-table/1",
        "ensemble": ensemble,
        "bounds": bounds,
        "entries": entries,
    }


def payload_to_json(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def payload_to_csv(payload: dict) -> bytes:
    k1, k2 = ENSEMBLES[payload["ensemble"]].keys
    out = io.StringIO()
    out.write(f"{k1},{k2},value\n")
    for e in payload["entries"]:
        out.write(f"{e[k1]},{e[k2]},{rat_str_explicit(Fraction(e['value']))}\n")
    return out.getvalue().encode()


def payload_to_table(payload: dict):
    """Rebuild a table object from a parsed JSON payload (no revalidation:
    the verify suites re-check constraints on whatever the payload holds)."""
    spec = ENSEMBLES[payload["ensemble"]]
    k1, k2 = spec.keys
    entries = {
        (int(e[k1]), int(e[k2])): Fraction(e["value"]) for e in payload["entries"]
    }
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
    rep = RunReport("identities", tool_version=__version__)
    for tag in IDENTITY_TAGS:
        rep.extend(verify_identity(tag, args.amax, args.bmax, args.nmax))
    return rep


def suite_odes(args) -> RunReport:
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
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode())


def cmd_gen(args) -> int:
    ensemble = args.ensemble
    spec = ENSEMBLES[ensemble]
    bounds = {name: getattr(args, name) for name in spec.bounds}
    for name, v in bounds.items():
        if v is None:
            raise UsageError(f"gen {ensemble} requires --{name}")
        _check_range(name, v, hi=spec.bounds[name], lo=spec.low)
    data = table_bytes(ensemble, bounds, not args.no_cache)
    if args.format == "csv":
        data = payload_to_csv(json.loads(data))
    _write_out(data, args.out)
    return 0


def cmd_oracle(args) -> int:
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
        "suites": [r.sorted().to_dict() for r in reports],
    }
    if args.out:
        Path(args.out).write_bytes(
            (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
        )
    ok = True
    for r in reports:
        fails = r.failures()
        print(f"suite {r.suite}: {len(r.checks)} checks, {len(fails)} failures")
        for c in sorted(fails, key=lambda c: c.id):
            print(f"  FAIL {c.id} anchor={c.anchor} {c.detail}")
            ok = False
    return 0 if ok else 1


def cmd_series(args) -> int:
    _check_range("k", args.k, hi=GEN_LIMITS["k"])
    _check_range("order", args.order, hi=GEN_LIMITS["order"])
    if args.which == "vk":
        ser = vk_series(args.k, args.order)
    else:
        if args.beta is None:
            raise UsageError("series skb requires --beta")
        ser = s_series(args.k, args.beta, args.order)
    # exponents of x, descending (series exponent m means x^-m)
    items = [
        {"exponent": -m, "value": str(ser.coefficient(m))}
        for m in range(ser.offset, ser.order + 1)
    ]
    _write_out((json.dumps(items, indent=2) + "\n").encode(), args.out)
    return 0


def cmd_eval_fab(args) -> int:
    _check_range("a", args.a, hi=GEN_LIMITS["fab"])
    _check_range("b", args.b, hi=GEN_LIMITS["fab"])
    if args.at is not None:
        try:
            point = Fraction(args.at)
        except (ValueError, ZeroDivisionError) as e:
            raise UsageError(f"bad --at {args.at!r} (expected p/q)") from e
    value = fab(args.a, args.b).value
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
