"""The gen tables: ENSEMBLES, the JSON and CSV pipe, the deterministic
cache and the ``--out`` sinks, and load_table, which reads a table back as
its rows for the verify suites.  The engines are looked up in
hzlag.engines by name, when a table is computed."""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import itertools
import json
import os
import sys
import tempfile
from operator import itemgetter
from pathlib import Path

from . import __version__

USAGE_ERROR, INTERNAL_ERROR = 2, 3  # exit codes


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def cache_dir() -> Path:
    env = os.environ.get("HZLAG_CACHE_DIR")
    return Path(env) if env else Path.home() / ".cache" / "hzlag"


# the layout of an entry; part of the cache key, so entries of another
# layout are recomputed, not read (2: the sha256 line before the bytes)
CACHE_FORMAT = 2


def _key_path(key: dict) -> Path:
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:32]
    return cache_dir() / f"gen-{digest}.json"


def cache_path(args: dict) -> Path:
    # "kind" stays in the key, so that no entry's name changes
    return _key_path({"tool": __version__, "format": CACHE_FORMAT, "kind": "gen", "args": args})


# bytes per read of a cache entry: to hash it, to copy it out, and to serve
# it as CSV rows or a table.  A read's transient
# buffers (the bytes, their lines, the rows made) scale with it, and so does
# peak RSS: VmHWM of a warm CSV gen of the benchmark's tables over its
# import floor, 2-vCPU VM, Python 3.11.7, was 2.5-3.9 MB with 1 MiB reads,
# 1.3-1.5 MB at 128 KiB, 0.5-0.6 MB at 64 KiB and 0.25-0.35 MB at 32 KiB,
# with warm gen times within noise of each other
_BUF = 1 << 16

# the line of the gen JSON that opens its entry list, which is never empty,
# the end of every entry but the last, and _ENDING, the three lines that
# close the list after the last entry, the one way a gen JSON ends
_SCHEMA = "hzlag-table/1"
_OPEN, _NEXT = b'  "entries": [\n', b"\n    },\n"
_ENDING = f'  ],\n  "schema": "{_SCHEMA}"\n}}\n'.encode()
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


def cached_bytes(args: dict, compute, use_cache: bool):
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
    path = cache_path(args)
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
        _key_path({"tool": __version__, "kind": "gen", "args": args}).unlink(missing_ok=True)
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
# no verifier or oracle.  The bounds, set to keep a request within about 200
# MB peak RSS while whole tables were held, are unchanged since.  An engine
# yields the table a row at a time, holding only the rows its relation
# reads (one for "3-t", "recurrence" and "rec-v2", four for "8-t") and its
# relation's coefficients; the rows are streamed into the cache entry (with
# --no-cache, a temporary file) _SLICE entries at a time and read back _BUF
# bytes at a time, so no table is held whole, and time bounds each request.
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
# import floor, and at 19.3-19.5 MB, 1.3-1.4 MB over it, as a warm CSV gen,
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
def _open_out(out: str | None, src=None):
    """The ``--out`` file opened for binary writing, or stdout's byte stream
    (flushed when done, never closed), as a _Sink.  An ``--out`` that is the
    file src, the binary file the bytes are read from (a cache entry), is a
    usage error: opening it for writing would empty it first."""
    if out is not None and src is not None:
        with contextlib.suppress(OSError):  # nothing at out, or src is not a file
            if os.path.samestat(os.stat(out), os.fstat(src.fileno())):
                raise UsageError(f"--out {out} is the cache entry the table is read from")
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


def _write_out(data: bytes, out: str | None) -> None:
    with _open_out(out) as f:
        f.write(data)


def _copy_out(src, out: str | None) -> None:
    """Copy the binary file src to ``out`` (None: stdout), _BUF bytes at a time."""
    with _open_out(out, src) as f:
        while chunk := src.read(_BUF):
            f.write(chunk)


def _entry_texts(src, keys: tuple[str, str]):
    """The entries of the gen JSON read from the binary file src, _BUF
    bytes at a time: for each piece of whole entries, the texts of their
    keys, in the order of keys, and of their values, as three lists of
    bytes.  A piece ends at the last _NEXT read so far, or is the last entry,
    before _ENDING.  An entry is five lines, "{", its keys in sorted order
    ('      "k": i,'), its value ('      "value": "v"') and "}", and a text
    runs from a fixed column to a byte before its line ends.  A list that
    does not open and close as gen writes it is named as corrupt."""
    # (line in the entry, column where the text starts) of each key and the value
    spots = [(sorted(keys).index(k) + 1, len(k) + 10) for k in keys] + [(3, 16)]

    def texts(lines: list) -> list:
        if len(lines) % 5:  # not whole entries
            raise _corrupt(src.name, _LIST_FAULT)
        return [list(map(itemgetter(slice(col, -1)), lines[line::5])) for line, col in spots]

    rest, opened = b"", False  # the bytes not yet served; whether the list is open
    while chunk := src.read(_BUF):
        rest += chunk
        del chunk  # each byte is held in rest alone, and then in its line
        if not opened and (at := rest.find(b"\n" + _OPEN)) >= 0:
            rest, opened = rest[at + 1 + len(_OPEN):], True
        if opened and (cut := rest.rfind(_NEXT) + len(_NEXT)) >= len(_NEXT):
            lines, rest = rest.split(b"\n"), rest[cut:]
            del lines[len(lines) - 1 - rest.count(b"\n"):]  # those of the entry cut
            piece = texts(lines)
            del lines
            yield piece
    if not opened or not rest.endswith(b"\n" + _ENDING):
        raise _corrupt(src.name, _LIST_FAULT)
    yield texts(rest[:-len(_ENDING) - 1].split(b"\n"))


def payload_to_csv(src, ensemble: str, out: str | None) -> None:
    """Write the gen JSON of one table, read from the binary file src a
    piece of _entry_texts at a time, as CSV rows to the file ``out`` (None:
    stdout): the keys in the ensemble's order, then the value with an
    explicit denominator, "p/q" in lowest terms with q >= 1 ("10/1")."""
    keys = ENSEMBLES[ensemble].keys
    with _open_out(out, src) as f:
        f.write(f"{keys[0]},{keys[1]},value\n".encode())
        for i, j, values in _entry_texts(src, keys):
            row = [b","] * (6 * len(values))  # i, j, the value and the line's end
            row[0::6], row[2::6], row[4::6] = i, j, values
            row[5::6] = [b"\n" if b"/" in v else b"/1\n" for v in values]
            f.write(b"".join(row))


def table_bytes(ensemble: str, bounds: dict, use_cache: bool):
    """The gen JSON of one table, through the cache when enabled, as an open
    binary file (see cached_bytes)."""
    return cached_bytes({"ensemble": ensemble, **bounds},
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
    table_bytes) is read a piece of _entry_texts at a time, with int values,
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
            for texts in _entry_texts(f, spec.keys):
                for i, j, v in zip(*texts):
                    rows.setdefault(int(i), {})[int(j)] = (
                        Fraction(v.decode()) if b"/" in v else int(v))
                    count += 1
        except (ValueError, ZeroDivisionError) as e:
            if not use_cache or isinstance(e, UsageError):  # one named by _entry_texts
                raise
            fault = f"its entries do not parse as numbers ({e})"
        else:  # with --no-cache the table is the engine's own
            fault = use_cache and _shape_fault(
                spec.shape(*(bounds[name] for name in spec.bounds)), rows, count)
    if fault:
        raise _corrupt(cache_path({"ensemble": ensemble, **bounds}), fault)
    return rows
