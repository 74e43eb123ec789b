"""Command-line front end: table generation, oracle queries, verification
suites, exact serialization, and a deterministic cache.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 internal error.  All output is byte-deterministic for identical
arguments; wall time is never serialized.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import re
import sys

from . import __version__
from .tables import (ENSEMBLES, GEN_BYTES, INTERNAL_ERROR, USAGE_ERROR, UsageError, _check_out,
                     _copy_out, _write_out, payload_to_csv, table_bytes)


# hard bounds besides gen's and verify's (keep runaway requests from
# consuming the machine); "fab" bounds eval-fab's --a and --b (A = B = 300
# took ~1.2 s and ~21 MB peak RSS on a 2-vCPU VM with Python 3.11);
# "at_digits" bounds the digits of eval-fab's --at p and q (at A = B = 300,
# p and q of 1/100/200/300 digits took 0.59/0.82/1.39/2.33 s and ~21 MB peak
# RSS in a fresh process, 2-vCPU VM, Python 3.11.7), and of the shift k of
# oracle's --rows and --cols N+k or N-k (--mu 12,12 took 0.8-1.0 s at 100
# digits and 13 s at 2,000; the slowest query found at 100 digits, --mu
# 1,1,1,1,2,2,3,3,4,6 --connected, takes 0.42 s as the oracle-connected-shift-100
# workload of scripts/bench.py, median of 5 fresh processes)
GEN_LIMITS = {"k": 64, "order": 4000, "fab": 300, "at_digits": 100}


def _check_range(flag: str, value: int, hi: int, lo: int = 0) -> None:
    """Reject an integer option below lo or above hi."""
    if not lo <= value <= hi:
        raise UsageError(f"--{flag} must be in {lo}..{hi}, got {value}")


# verify's window options, in --help order: option -> (default, least and
# largest value, what it bounds for --help, the suites whose window it
# sets).  The identities suite's cost grows about as the fourth power of
# --amax, --bmax and --nmax: all three at 30/40/50 took 0.8/2.0/3.2 s and
# 22.6/27.7/35.9 MB VmHWM (medians of 3 fresh processes with --no-cache,
# 2-vCPU VM, Python 3.11.7).  The constraints suite's vk and gauss tables
# follow --gmax; the crosscheck suite's laguerre table stops at genus 3, so
# from --mmax 8 on it would lack rows
VERIFY_WINDOWS = {
    "amax": (10, 0, 50, "largest A of the identities suite's f_{A,B}", ("identities",)),
    "bmax": (10, 0, 50, "largest B of the identities suite's f_{A,B}", ("identities",)),
    "nmax": (10, 0, 50, "largest N of the identities and odes suites", ("identities", "odes")),
    "gmax": (6, 0, 8, "largest genus of the constraints suite's vk and gauss tables "
                      "(that suite needs 1 or more)", ("constraints",)),
    "mmax": (6, 0, 6, "largest moment m of the crosscheck suite's rep-N-wick, 3-t-wick "
                      "and gamma-collapse checks", ("crosscheck",)),
}


# each suite -> the name of its function in hzlag.verify, looked up when
# the suite runs, so that no gen loads the suites
SUITES = {name: f"suite_{name}" for name in ("identities", "odes", "crosscheck", "constraints")}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    ensemble = args.ensemble
    spec = ENSEMBLES[ensemble]
    for name in dict.fromkeys(n for other in ENSEMBLES.values() for n in other.bounds):
        if name not in spec.bounds and getattr(args, name) is not None:
            raise UsageError(f"gen {ensemble} takes no --{name}")
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
    _check_out(args.out, {"ensemble": ensemble, **bounds})
    with table_bytes(ensemble, bounds, not args.no_cache) as src:
        if args.format == "csv":
            payload_to_csv(src, ensemble, args.out)
        else:
            _copy_out(src, args.out)
    return 0


def cmd_oracle(args) -> int:
    from .wick import DegreeLimitError, complex_wishart_moment, connected_moments, parse_dimension

    # ASCII digits only: int() would also read "1_0" and other scripts' digits
    if not re.fullmatch(r"[0-9]+(?:,[0-9]+)*", args.mu):
        raise UsageError(f"bad --mu {args.mu!r}")
    pattern = tuple(map(int, args.mu.split(",")))
    if min(pattern) < 1:
        raise UsageError(f"--mu entries must be positive, got {args.mu!r}")
    limit = GEN_LIMITS["at_digits"]
    for flag, spec in (("rows", args.rows), ("cols", args.cols)):
        # counted as written, before the shift is parsed
        if max(map(len, re.findall(r"[0-9]+", spec)), default=0) > limit:
            raise UsageError("--%s shift k must have at most %d digits" % (flag, limit))
        try:
            parse_dimension(spec)
        except ValueError as e:
            raise UsageError(f"bad --{flag} {spec!r} (expected N, N+k or N-k)") from e
    fn = connected_moments if args.connected else complex_wishart_moment
    try:
        moment = fn(pattern, args.rows, args.cols)
    except DegreeLimitError as e:
        raise UsageError(f"--mu {e}") from e
    _write_out(f"{moment}\n".encode(), None)
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for flag, (_, lo, hi, *_) in VERIFY_WINDOWS.items():
        _check_range(flag, getattr(args, flag), hi=hi, lo=lo)
    if "constraints" in names and args.gmax < 1:
        raise UsageError(f"suite constraints needs --gmax >= 1, got {args.gmax}")
    _check_out(args.out)
    verify = importlib.import_module(".verify", __package__)
    runs = []
    for n in names:
        checks = sorted(getattr(verify, SUITES[n])(args), key=lambda c: c.id)
        if not checks:
            bounds = " ".join(f"--{b} {getattr(args, b)}"
                              for b, (*_, suites) in VERIFY_WINDOWS.items() if n in suites)
            raise UsageError(f"suite {n} runs no checks at {bounds}")
        runs.append((n, checks))
    if args.out is not None:
        suites = [{"suite": n, "tool_version": __version__, "passed": all(c.ok for c in checks),
                   "checks": [c._asdict() for c in checks]} for n, checks in runs]
        payload = {"schema": "hzlag-report/1", "tool_version": __version__, "suites": suites}
        _write_out((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode(), args.out)
    lines, failed = [], False
    for n, checks in runs:
        fails = [c for c in checks if not c.ok]
        lines.append(f"suite {n}: {len(checks)} checks, {len(fails)} failures\n")
        lines += [f"  FAIL {c.id} anchor={c.anchor} {c.detail}\n" for c in fails]
        failed = failed or bool(fails)
    _write_out("".join(lines).encode(), None)
    return 1 if failed else 0


def cmd_series(args) -> int:
    from .recursions import s_series, vk_series

    _check_range("k", args.k, hi=GEN_LIMITS["k"])
    _check_range("order", args.order, hi=GEN_LIMITS["order"])
    if args.which == "vk" and args.beta is not None:
        raise UsageError("series vk takes no --beta")
    if args.which == "skb" and args.beta is None:
        raise UsageError("series skb requires --beta")
    _check_out(args.out)
    if args.which == "vk":
        ser = vk_series(args.k, args.order)
    else:
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
    try:
        text = f"{value if args.at is None else value(point)}\n"
    except ZeroDivisionError as e:
        raise UsageError(f"f_{{{args.a},{args.b}}} has a pole at {args.at}") from e
    _write_out(text.encode(), None)
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

    o = sub.add_parser("oracle", help="exact Wick moment by loop equations")
    o.add_argument("--mu", required=True, help="comma-separated trace exponents")
    o.add_argument("--rows", default="N")
    o.add_argument("--cols", default="N")
    o.add_argument("--connected", action="store_true")
    o.set_defaults(fn=cmd_oracle)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    # %-formatted: as f-strings, the help texts raised the VmHWM of an
    # import of hzlag.cli without cached bytecode by 0.2 MB
    for flag, (default, lo, hi, what, _) in VERIFY_WINDOWS.items():
        v.add_argument("--" + flag, type=int, default=default,
                       help="%s, %d to %d (default %d)" % (what, lo, hi, default))
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


def entry() -> int:
    """The ``hzlag`` command: main() on the process's arguments.  Its
    objects are then moved out of the collector's reach, so that shutdown
    does not sweep the import graph's cycles a process is about to drop
    anyway; main() itself leaves the collector alone for in-process
    callers."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
