"""Command-line front end: table generation, oracle queries, verification
suites, exact serialization, and a deterministic cache.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 internal error.  All output is byte-deterministic for identical
arguments; wall time is never serialized.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import re
import sys
import tempfile
from collections import namedtuple
from operator import itemgetter
from pathlib import Path

from . import __version__

USAGE_ERROR = 2
INTERNAL_ERROR = 3

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


class UsageError(ValueError):
    pass


def _check_range(flag: str, value: int, hi: int, lo: int = 0) -> None:
    """Reject an integer option below lo or above hi."""
    if not lo <= value <= hi:
        raise UsageError(f"--{flag} must be in {lo}..{hi}, got {value}")


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


def _key_path(key: dict) -> Path:
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:32]
    return cache_dir() / f"{key['kind']}-{digest}.json"


def cache_path(kind: str, args: dict) -> Path:
    return _key_path({"tool": __version__, "format": CACHE_FORMAT, "kind": kind, "args": args})


# bytes per read of a cache entry: to hash it, to copy it out, and as the
# readlines hint that serves it as CSV rows or a table.  A read's transient
# buffers (the bytes, their lines, the rows made) scale with it, and so does
# peak RSS: VmHWM of a warm CSV gen of the benchmark's tables over its
# import floor, 2-vCPU VM, Python 3.11.7, was 2.5-3.9 MB with 1 MiB reads,
# 1.3-1.5 MB at 128 KiB, 0.5-0.6 MB at 64 KiB and 0.25-0.35 MB at 32 KiB,
# with warm gen times within noise of each other
_BUF = 1 << 16

# the line of the gen JSON that opens its entry list, which is never empty,
# the first of the three that close it after the last entry, and _ENDING,
# all three, the one way a gen JSON ends
_SCHEMA = "hzlag-table/1"
_OPEN, _CLOSE = b'  "entries": [\n', b"  ],\n"
_ENDING = _CLOSE + f'  "schema": "{_SCHEMA}"\n}}\n'.encode()
_LIST_FAULT = "its entry list does not open and close as gen writes it"


def _corrupt(path, fault: str) -> UsageError:
    """The usage error that names the cache entry at path as corrupt."""
    return UsageError(f"corrupt cache entry {path}: {fault}; delete the file or pass --no-cache")


def _read_entry(path: Path):
    """The cache entry at path, opened as a buffered binary file, checked
    against its digest line and positioned just after that line, or None
    when there is no entry.

    The bytes after the digest line are hashed _BUF at a time, and must
    end as gen ends its JSON, with _ENDING; on a mismatch, or an entry cut
    or emptied under a digest rewritten to match, the entry is named as
    corrupt before any of it is served."""
    try:
        f = open(path, "rb")
    except (FileNotFoundError, NotADirectoryError):  # no entry yet
        return None
    except OSError as e:  # a directory or an unreadable file in its place
        raise UsageError(f"cannot use cache entry {path} ({e.strerror}); pass --no-cache") from e
    try:
        line, sha, end = f.read(65), hashlib.sha256(), b""
        n = len(_ENDING)
        while chunk := f.read(_BUF):
            sha.update(chunk)
            end = (end + chunk[-n:])[-n:]
        if line != sha.hexdigest().encode() + b"\n":
            raise _corrupt(path, "it does not begin with the sha256 digest of the rest")
        if end != _ENDING:
            raise _corrupt(path, _LIST_FAULT)
        # the bytes served are read through the same descriptor after the
        # check; an entry is only ever replaced by os.replace, never
        # rewritten in place, so they are the bytes just hashed
        f.seek(len(line))
    except BaseException:
        f.close()
        raise
    return f


class _HashingSink:
    """A binary sink that passes each write on to f and feeds it to a sha256."""

    __slots__ = ("f", "sha")

    def __init__(self, f):
        self.f, self.sha = f, hashlib.sha256()

    def write(self, b: bytes) -> int:
        self.sha.update(b)
        return self.f.write(b)


def cached_bytes(kind: str, args: dict, compute, use_cache: bool):
    """The bytes compute(sink) writes to a binary sink, through the cache
    when enabled, as an open binary file positioned at their start, for the
    caller to read and close (``with cached_bytes(...) as f``).

    An entry is the sha256 hex digest of the bytes, a newline, then the
    bytes.  It is opened only when its bytes match the digest, and named as
    corrupt otherwise.  On a miss, compute streams into the entry's
    temporary file, hashed as it is written; that file is renamed into place
    and served through the descriptor that wrote it, so its bytes are not
    read back to be hashed again, and the same table's entry of the
    pre-digest layout is removed.  With the cache off, compute streams into
    an anonymous temporary file.  No path holds the bytes in memory.
    (perfbench/tracer.py counts cache hits and misses by this name, and by
    whether compute runs inside the call.)"""
    if not use_cache:
        try:
            f = tempfile.TemporaryFile()
        except OSError as e:
            raise UsageError(f"cannot create a temporary file for --no-cache ({e.strerror}); "
                             "set TMPDIR to a writable directory") from e
        try:
            compute(f)
            f.seek(0)
        except BaseException:
            f.close()
            raise
        return f
    path = cache_path(kind, args)
    f = _read_entry(path)
    if f is not None:
        return f
    # write a temporary file next to the entry and rename it into place, so
    # the entry is either absent or complete, never partly written
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    except OSError as e:
        raise UsageError(
            f"cannot use cache directory {path.parent} ({e.strerror}); pass --no-cache") from e
    f = os.fdopen(fd, "w+b")
    try:
        f.write(b"0" * 64 + b"\n")  # the digest line's place, filled in below
        sink = _HashingSink(f)
        compute(sink)
        f.seek(0)
        f.write(sink.sha.hexdigest().encode())
        f.seek(65)  # past the digest line, which this flushes; the bytes are served from here
        os.replace(tmp, path)
    except BaseException:
        f.close()
        os.unlink(tmp)
        raise
    # the same table's entry of the layout before the digest line, whose key
    # had no "format", is never read; failing to remove it fails no request
    with contextlib.suppress(OSError):
        _key_path({"tool": __version__, "kind": kind, "args": args}).unlink(missing_ok=True)
    return f


# ---------------------------------------------------------------------------
# table serialization
# ---------------------------------------------------------------------------

class Ensemble:
    """How `gen` bounds, generates and serializes one ensemble's table."""

    __slots__ = ("bounds", "keys", "engine", "shape", "low", "size")

    def __init__(self, bounds: dict[str, int], keys: tuple[str, str], engine: str, shape,
                 low: int = 0, size=None):
        self.bounds = bounds  # gen option -> its largest value, in the engine's argument order
        self.keys = keys  # the index names of a table entry
        self.engine = engine  # bound values -> the table's items, one row at a time
        self.shape = shape  # bound values -> {i: range of j}, the keys of every entry
        self.low = low  # smallest value every bound accepts
        self.size = size  # bound values -> about the bytes of the gen JSON, or None

    def items(self, *bounds):
        """The table's rows ``(i, j0, values)`` in sorted key order, as an iterator."""
        # by its full name: ``from . import engines`` would go through
        # hzlag.__getattr__, which lists the package directory
        return getattr(importlib.import_module(".engines", __package__), self.engine)(*bounds)


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


# each engine is named by a string and looked up in hzlag.engines when it
# is called, so importing this module loads no engine, and a cold gen loads
# no verifier or oracle.  The bounds were set to keep a request within about
# 200 MB peak RSS while every entry was held as an int, a string and JSON
# bytes at once; they are unchanged since.  Now an engine yields the table a
# row at a time, holding only the rows its relation reads (one for "3-t",
# "recurrence" and "rec-v2", four for "8-t") and its relation's
# coefficients; the rows are streamed into the cache entry (with --no-cache,
# a temporary file) _SLICE entries at a time and read back from it a
# readlines(_BUF) at a time, so no table is ever held whole, and time, not
# memory, bounds each request.
#
# Each engine fixes its number type (see hzlag.engines): the laguerre and
# gauss engines run over exact Decimal.  In-process, the engine plus str()
# of every entry took 0.16 s over Decimal against 0.31 s over int at
# laguerre 150/300, and 0.09 against 0.26 s at gauss 200 (medians of 5).
# glag-k1 stays on int: its "8-t" entries are shorter, and over Decimal it
# took 0.21 s against 0.16 s at 120/240; vk's entries are Fractions.
#
# A laguerre table's time and size follow its digits, not its bounds, so its
# request is bounded by the estimated size of its JSON, GEN_BYTES; its option
# bounds only keep that estimate cheap.  Each largest accepted request (vk
# 150, gauss 300, glag-k1 240/480, laguerre 100/962, 200/432, 400/138 and
# 1000/21; 39-64 MB written) took 0.24-1.04 s (README gives each) and
# peaked at 19.8-20.4 MB VmHWM as a cold JSON gen, 1.8-2.4 MB over its
# import floor, and at 19.3-19.5 MB, 1.3-1.5 MB over it, as a warm CSV gen,
# as scripts/bench.py measures, with cached bytecode (2-vCPU VM, Python
# 3.11.7, medians of 5).  There the benchmark tables read 0.6-1.4 MB over
# it cold, 1.0-1.3 MB warm CSV (medians of 10).
GEN_BYTES = 60_000_000
ENSEMBLES = {
    "laguerre": Ensemble({"gmax": 1000, "nmax": 2000}, ("g", "n"), "do_norbury_items",
                         lambda gmax, nmax: {g: range(nmax + 1) for g in range(gmax + 1)},
                         size=_laguerre_json_bytes),
    "gauss": Ensemble({"gmax": 300}, ("g", "k"), "gauss_hz_items",
                      lambda gmax: {g: range(g) for g in range(1, gmax + 1)}, low=1),
    "vk": Ensemble({"gmax": 150}, ("g", "k"), "vk_items",
                   lambda gmax: {g: range(-3 * g, g + 1) for g in range(gmax + 1)}),
    "glag-k1": Ensemble({"rmax2": 240, "nmax": 480}, ("r2", "n"), "glag_k1_items",
                        lambda rmax2, nmax: {q: range(nmax + 1) for q in range(rmax2 + 1)}),
}


def table_payload(ensemble: str, bounds: dict) -> dict:
    """The header of one table's gen JSON and its entries, as the engine's
    iterator over rows ``(i, j0, values)`` (a value is an int, an integral
    Decimal or a Fraction), made as they are read."""
    spec = ENSEMBLES[ensemble]
    return {"schema": _SCHEMA, "ensemble": ensemble, "bounds": bounds,
            "entries": spec.items(*(bounds[name] for name in spec.bounds))}


# entries per write of the gen JSON: a row is rendered and written in slices
# of at most this many entries, each made by one str.join, so a write holds
# about _SLICE entries' bytes however long a row is (a laguerre row runs to
# 1.45 MB of JSON at the limits, and its entries to thousands of digits)
_SLICE = 64


def payload_to_json(payload: dict, f) -> None:
    """Write ``json.dumps(P, sort_keys=True, indent=2) + "\n"``, encoded, to
    the binary sink f, where P is the payload with its entries, given as
    rows ``(i, j0, values)``, written out one entry ``{k1: i, k2: j, "value":
    str(v)}`` per value v, j counting up from j0.

    The encoder renders only the fields around the entries.  A row is
    written in slices of at most _SLICE of its entries, one write each, and
    a slice is one str.join over four pieces per entry: the row's constant
    prefix (the end of the entry before, and the start of this one), str(j),
    the row's constant text between j and the value, and str(v); a constant
    suffix closes the slice.  The rows are a list or an iterator, read once;
    a value is an int, an integral Decimal (str gives its digits, without an
    exponent) or a Fraction, whose str JSON quoting leaves as it is.  Every
    gen table has an entry; the list opens before the first row is read."""
    head, tail = json.dumps({**payload, "entries": []}, sort_keys=True,
                            indent=2).split('"entries": []')
    k1, k2 = ENSEMBLES[payload["ensemble"]].keys
    # an entry's text up to its value: its keys in sorted order, with \1 in
    # place of the row index i and \0 in place of j
    form = "    {\n" + "".join('      "%s": %s,\n' % (k, "\1" if k == k1 else "\0")
                               for k in sorted((k1, k2))) + '      "value": "'
    f.write(f'{head}"entries": [\n'.encode())
    sep = ""  # what comes before the next entry: "" before the first
    for i, j0, values in payload["entries"]:
        # an entry is start + str(j) + middle + str(v) + '"\n    }'
        start, middle = form.replace("\1", str(i)).split("\0")
        glue = '"\n    },\n' + start
        for a in range(0, len(values), _SLICE):
            part = values[a:a + _SLICE]
            pieces = [glue, "", middle, ""] * len(part)
            pieces[0] = sep + start
            pieces[1::4] = map(str, range(j0 + a, j0 + a + len(part)))
            pieces[3::4] = map(str, part)
            pieces.append('"\n    }')
            f.write("".join(pieces).encode())
            sep = ",\n"
    f.write(f"\n  ]{tail}\n".encode())


def _open_file(out: str, mode: str):
    """The ``--out`` file opened in mode, or a usage error naming it."""
    try:
        return open(out, mode)
    except OSError as e:
        raise UsageError(f"cannot write --out {out} ({e.strerror})") from e


def _check_out(out: str | None) -> None:
    """Raise the usage error of _open_file when ``--out`` cannot be opened
    for writing, before any work starts.  The probe opens it for appending,
    so an existing file is left as it was, and removes a file it created."""
    if out is not None:
        existed = os.path.lexists(out)
        _open_file(out, "ab").close()
        if not existed:
            os.unlink(out)


class _Sink:
    """The binary stream of the ``--out`` file (out is its name) or of
    stdout (out is None), on which a failed write is a usage error naming
    it.  A broken pipe is not a failure: the reader has stopped."""

    __slots__ = ("f", "out")

    def __init__(self, f, out: str | None):
        self.f, self.out = f, out

    def write(self, b: bytes) -> int:
        return self.run(self.f.write, b)

    def run(self, call, *args):
        """call(*args), with an OSError other than a broken pipe raised as a
        usage error."""
        try:
            return call(*args)
        except OSError as e:
            if self.out is None:
                # what could not be written may still be buffered: point
                # stdout at the null device, so the flush at exit cannot fail
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, self.f.fileno())
                os.close(devnull)
            if isinstance(e, BrokenPipeError):
                raise
            target = f"--out {self.out}" if self.out is not None else "to stdout"
            raise UsageError(f"cannot write {target} ({e.strerror})") from e


@contextlib.contextmanager
def _open_out(out: str | None):
    """The ``--out`` file opened for binary writing, or stdout's byte stream
    (flushed when done, never closed), as a _Sink."""
    f = _open_file(out, "wb") if out is not None else sys.stdout.buffer
    sink = _Sink(f, out)
    try:
        if out is None:
            sink.run(sys.stdout.flush)  # text written before goes first
        yield sink
        sink.run(f.close if out is not None else f.flush)
    finally:
        if out is not None:  # after an error, closing cannot fail with a second one
            with contextlib.suppress(OSError):
                f.close()


def _entry_groups(src):
    """The entries of the gen JSON read from the binary file src, as lists
    of lines, each holding whole entries of five lines: src is read by
    readlines(_BUF), and the last three lines read are held back, since
    they close the payload if src ends there.  A cache entry whose list
    does not open and close as gen writes it is named as corrupt."""
    held, opened = [], False  # the lines not yet served; whether the list is open
    for chunk in iter(lambda: src.readlines(_BUF), []):
        held += chunk
        if not opened and _OPEN in held:
            del held[:held.index(_OPEN) + 1]
            opened = True
        if opened and (n := (len(held) - 3) // 5 * 5) > 0:
            yield held[:n]
            del held[:n]
    if not opened or len(held) != 3 or held[0] != _CLOSE:
        raise _corrupt(src.name, _LIST_FAULT)


def _entry_fields(lines: list, keys: tuple[str, str]) -> list:
    """The texts of the keys, in the order of keys, and of the values of the
    entries in a list of _entry_groups, as three lists of bytes.  An entry
    is five lines: "{", its keys in sorted order ('      "k": i,'), its
    value ('      "value": "v"') and "}"; a text ends two bytes before its
    line does."""
    # (line in the entry, column where the text starts) of each key and the value
    spots = [(sorted(keys).index(k) + 1, len(k) + 10) for k in keys] + [(3, 16)]
    return [list(map(itemgetter(slice(col, -2)), lines[line::5])) for line, col in spots]


def payload_to_csv(src, ensemble: str, out: str | None) -> None:
    """Write the gen JSON of one table, read from the binary file src a
    list of _entry_groups at a time, as CSV rows to the file ``out`` (None:
    stdout): the keys in the ensemble's order, then the value with an
    explicit denominator, "p/q" in lowest terms with q >= 1 ("10/1")."""
    keys = ENSEMBLES[ensemble].keys
    with _open_out(out) as f:
        f.write(f"{keys[0]},{keys[1]},value\n".encode())
        for lines in _entry_groups(src):
            i, j, values = _entry_fields(lines, keys)
            row = [b","] * (6 * len(values))  # i, j, the value and the line's end
            row[0::6], row[2::6], row[4::6] = i, j, values
            row[5::6] = [b"\n" if b"/" in v else b"/1\n" for v in values]
            f.write(b"".join(row))


def table_bytes(ensemble: str, bounds: dict, use_cache: bool):
    """The gen JSON of one table, through the cache when enabled, as an open
    binary file (see cached_bytes)."""
    return cached_bytes("gen", {"ensemble": ensemble, **bounds},
                        lambda f: payload_to_json(table_payload(ensemble, bounds), f), use_cache)


def _shape_fault(shape: dict, rows: dict, count: int) -> str | None:
    """Why the keys of rows {i: {j: value}}, parsed from count entries, are
    not those of shape ({i: range of j}), each once, or None when they are."""
    for i, row in rows.items():
        js = shape.get(i, ())
        for j in row:
            if j not in js:
                return f"its key {(i, j)} is out of range"
    size = sum(map(len, rows.values()))
    if count > size:
        return "its entries repeat a key"
    if size < sum(map(len, shape.values())):
        key = next((i, j) for i, js in shape.items() for j in js if j not in rows.get(i, ()))
        return f"its key {key} is missing"
    return None


def load_table(ensemble: str, bounds: dict, use_cache: bool) -> dict:
    """The rows {i: {j: value}} of one table, filled as its gen JSON (see
    table_bytes) is read a list of _entry_groups at a time, with int values,
    and a Fraction where a value has a denominator.  The values are not
    re-checked: the verify suites re-check constraints on whatever the entry
    holds.  A cache entry whose keys or values do not parse as numbers, or
    whose keys are not those of the ensemble's shape, each once, is named as
    corrupt."""
    from fractions import Fraction

    spec = ENSEMBLES[ensemble]
    rows, count = {}, 0
    with table_bytes(ensemble, bounds, use_cache) as f:
        try:
            for lines in _entry_groups(f):
                for i, j, v in zip(*_entry_fields(lines, spec.keys)):
                    rows.setdefault(int(i), {})[int(j)] = (
                        Fraction(v.decode()) if b"/" in v else int(v))
                    count += 1
        except (ValueError, ZeroDivisionError) as e:
            if not use_cache or isinstance(e, UsageError):  # one named by _entry_groups
                raise
            fault = f"its entries do not parse as numbers ({e})"
        else:  # with --no-cache the table is the engine's own
            fault = use_cache and _shape_fault(
                spec.shape(*(bounds[name] for name in spec.bounds)), rows, count)
    if fault:
        raise _corrupt(cache_path("gen", {"ensemble": ensemble, **bounds}), fault)
    return rows


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

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


class CheckRecord(namedtuple("CheckRecord", "id anchor status detail", defaults=("",))):
    """Outcome of a single verification check.

    ``anchor`` is the short tag of the identity / recursion being checked
    (e.g. "feat-1", "3-t"); ``status`` is "pass" or "fail"; ``detail``
    names the first differing cell when the check fails, as a string.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def judge(comparisons) -> list[CheckRecord]:
    """The check record of each comparison of a suite, in order.

    A comparison is ``(check id, anchor, (route, reference), cells)``, a
    cell ``(where, route value, reference value)``.  It passes when every
    cell agrees; otherwise its detail is the first differing cell, ``where:
    route X reference Y``, without ``where: `` when where is empty.  Cells
    are lists: a generator would bind the suite's loop variables late.  The
    route modules return values, and only this loop judges them."""
    checks = []
    for check_id, anchor, (route, reference), cells in comparisons:
        bad = [f"{where}{': ' if where else ''}{route} {got} {reference} {want}"
               for where, got, want in cells if got != want]
        checks.append(CheckRecord(check_id, anchor, "fail" if bad else "pass", *bad[:1]))
    return checks


def _zero(check_id: str, anchor: str, what: str, value):
    """The comparison of one value, named what, with 0."""
    return check_id, anchor, (what, "expected"), [("", value, 0)]


def suite_identities(args) -> list[CheckRecord]:
    from .residues import AB_IDENTITIES, N_IDENTITIES

    return judge([_zero(f"{tag}[A={A},B={B}{suffix}]", tag, "residual", res)
                  for tag, (low, residuals) in AB_IDENTITIES.items()
                  for A in range(low, args.amax + 1) for B in range(low, args.bmax + 1)
                  for suffix, res in residuals(A, B)]
                 + [_zero(f"{tag}[N={N}]", tag, "residual", residual(N))
                    for tag, residual in N_IDENTITIES.items() for N in range(1, args.nmax + 1)])


def suite_odes(args) -> list[CheckRecord]:
    from .residues import ODES, t1_residual

    ns = range(1, args.nmax + 1)
    return judge([_zero(f"ode-{tag}[N={N}]", tag, "residual", ode(N))
                  for N in ns for tag, ode in ODES.items()]
                 + [_zero(f"T-1[N={N},k={k}]", "T-1", "residual", t1_residual(N, k))
                    for N in ns for k in range(3)])


def suite_crosscheck(args) -> list[CheckRecord]:
    """Where the routes meet: one list of comparisons (see judge)."""
    from .recursions import gauss_genus_coefficients, half_binomial_series
    from .residues import exp_mean_moments, two_point_series
    from .spectral import a_row_series, s_pair_series, w30_basis_coefficient
    from .wick import (MomentPoly, complex_wishart_moment, connected_moments, genus_extract,
                       gue_moment)

    mmax, fact = args.mmax, math.factorial
    wick = {m: complex_wishart_moment((m,)) for m in range(1, mmax + 1)}
    # one point: residue route vs Wick oracle, as E tr W^m for W = B B† = N H
    comparisons = [
        (f"rep-N-wick[N={N},m={m}]", "rep-N", ("residue", "wick"),
         [("", mom[m], wick[m].shift_exponent(m)(N) if m else N)])
        for N in range(1, 6) for mom in [exp_mean_moments(N, mmax)] for m in range(mmax + 1)]
    # genus grading of the symbolic oracle vs the recursion table
    dn = load_table("laguerre", {"gmax": 3, "nmax": mmax}, args.cache)
    for m in range(1, mmax + 1):
        comparisons += [
            (f"3-t-wick[m={m}]", "3-t", ("table", "wick"),
             [(f"g={g}", dn[g][m - 2 * g], c) for g, c in genus_extract(wick[m], 1).items()]),
            (f"gamma-collapse[m={m}]", "rep-N", ("sum", "m!"),
             [("", sum(dn[g][m - 2 * g] for g in range(m // 2 + 1)), fact(m))])]
    # two-point: residue route vs connected Wick oracle, as the connected
    # E tr W^m1 tr W^m2 (0 where an m is 0)
    pairs = [(m1, m2) for m1 in range(6) for m2 in range(6 - m1) if m1 or m2]
    comparisons += [
        (f"W2-wick[N={N}]", "W2", ("residue", "wick"),
         [(f"m1={m1},m2={m2}", fact(m1) * fact(m2) * tp[m1, m2],
           connected_moments((m1, m2)).shift_exponent(m1 + m2)(N) if m1 and m2 else 0)
          for m1, m2 in pairs])
        for N in range(1, 4) for tp in [two_point_series(N, 5)]]
    # Gaussian branch vs pairing oracle, genus by genus, for m <= 12
    gt = load_table("gauss", {"gmax": 3}, args.cache)
    comparisons += [
        (f"recurrence-gue[g={g}]", "recurrence", ("table", "oracle"),
         [(f"m={m}", series[m], gue_moment(m).coefficient(1 - 2 * g)) for m in range(13)])
        for g in range(1, 4) for series in [gauss_genus_coefficients(gt[g], g, 12)]]
    # rectangular k = 1 branch vs Wick oracle: <tr H^m> = sum_q C_{m-q}^(q/2) N^(1-q)
    ht = load_table("glag-k1", {"rmax2": 5, "nmax": 8}, args.cache)
    comparisons += [
        (f"8-t-wick[m={m}]", "8-t", ("table", "wick"),
         [("", MomentPoly({1 - q: ht[q][m - q] for q in range(m + 1)}),
           complex_wishart_moment((m,), "N", "N+1"))])
        for m in range(1, 6)]
    # W30: the oracle's leading connected three-trace coefficient is twice the basis product's
    comparisons.append(
        ("W30[constant-ratio]", "W30", ("oracle", "2*basis"),
         [(f"m={t}", connected_moments(t).coefficient(-1), 2 * w30_basis_coefficient(*t))
          for t in ((1, 1, 1), (2, 1, 1), (2, 2, 1))]))
    # W11: s_{1,1} + 2 s_{1,0} and the expansion of the g = 1 a-row, through
    # x^-7, vs the closed form x^-4 (1 - 4/x)^(-5/2)
    closed = [0] * 4 + half_binomial_series(-5, 3)
    a_row = a_row_series(load_table("vk", {"gmax": 1}, args.cache)[1], 1, 7)
    comparisons += [
        (f"W11[{name}-vs-closed]", "W11", (route, "closed"),
         [(f"x^-{e}", v, c) for e, (v, c) in enumerate(zip(series, closed))])
        for name, route, series in (("s", "s-basis", s_pair_series(1, 7)),
                                    ("arow", "a-row", a_row))]
    return judge(comparisons)


def suite_constraints(args) -> list[CheckRecord]:
    from .engines import consistency_form
    from .recursions import asym_moments, int2_residuals, integrality_violations, w1_slots
    from .spectral import a_row_series

    vt = load_table("vk", {"gmax": args.gmax}, args.cache)
    comparisons = [_zero(f"consistency[g={g}]", "consistency", "form", consistency_form(vt[g]))
                   for g in range(args.gmax + 1)]
    comparisons += [_zero(f"asym-r[g={g},r={r}]", "asym-r", "moment", s)
                    for g in range(1, args.gmax + 1)
                    for r, s in enumerate(asym_moments(vt[g], 2 * g + 1))]
    # a-row expansion vs three-term recursion table: the coefficients of x^0
    # .. x^-2g cancel, and C_n^(g) is that of x^(-1-2g-n)
    dn = load_table("laguerre", {"gmax": 5, "nmax": 20}, args.cache)
    comparisons += [
        (f"a-to-C[g={g}]", "rec-v2", ("a-row", "table"),
         [(f"x^-{e}", v, dn[g][e - 1 - 2 * g] if e > 2 * g else 0)
          for e, v in enumerate(a_row_series(vt[g], g, 21 + 2 * g))])
        for g in range(min(args.gmax, 5) + 1)]
    # operator equations
    int2 = int2_residuals(load_table("laguerre", {"gmax": 3, "nmax": 10}, args.cache))
    comparisons += [_zero(f"int-2[g={g},n={n}]", "int-2", "residual", r)
                    for (g, n), r in int2.items()]
    w1 = w1_slots(load_table("glag-k1", {"rmax2": 4, "nmax": 8}, args.cache))
    comparisons += [(f"W1[q={q},e={e}]", "W1", ("collected", "expected"), [("", got, want)])
                    for (q, e), (got, want) in w1.items()]
    # integrality expectations
    for name, violations in (
        # the n = 0 column is the seed C_0^(g) = (1, 0, 0, ...), not a count, so it is exempt
        ("laguerre", [key for key in integrality_violations(dn) if key[1] >= 1]),
        ("gauss", integrality_violations(load_table("gauss", {"gmax": args.gmax}, args.cache))),
    ):
        comparisons.append((f"integrality[{name}]", "C1g", ("violations", "expected"),
                            [("", violations[:5], [])]))
    return judge(comparisons)


SUITES = {
    "identities": suite_identities,
    "odes": suite_odes,
    "crosscheck": suite_crosscheck,
    "constraints": suite_constraints,
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
    _check_out(args.out)
    with table_bytes(ensemble, bounds, not args.no_cache) as src:
        if args.format == "csv":
            payload_to_csv(src, ensemble, args.out)
        else:
            with _open_out(args.out) as f:
                while chunk := src.read(_BUF):
                    f.write(chunk)
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
    runs = []
    for n in names:
        checks = sorted(SUITES[n](args), key=lambda c: c.id)
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
    from .spectral import s_series, vk_series

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
