"""End-to-end tests of the command-line interface: determinism, exit codes,
serialization formats, and the table cache."""

import argparse
import ast
import contextlib
import decimal
import gc
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hzlag
from hzlag import cli, engines, exact, recursions, residues, tables, verify, wick
from hzlag.cli import main
from hzlag.tables import (
    ENSEMBLES,
    cache_path,
    cached_bytes,
    payload_to_csv,
    payload_to_json,
    table_payload,
)
from hzlag.exact import WLaurent
from hzlag.engines import IntegralityError
from hzlag.recursions import c1_closed_form
from hzlag.residues import AB_IDENTITIES, N_IDENTITIES, ODES
from hzlag.wick import WISHART_DEGREE_LIMIT

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden" / "vk_gmax2.json"
# eval-fab stdout for 0 <= A, B <= 12: [bare, --at 1/2] per "A,B"
EVAL_FAB_GOLDEN = pathlib.Path(__file__).parent / "golden" / "eval_fab_ab12.json"
SKB_GOLDEN = pathlib.Path(__file__).parent / "golden" / "series_skb_k3_beta1_order40.json"
# gen JSON of the four integer engines, recorded when they still computed
# over Fraction, then their CSV, recorded when each CSV cell was still made
# from Fraction(value) as f"{q.numerator}/{q.denominator}"
JSON_GOLDENS = [
    (["laguerre", "--gmax", "4", "--nmax", "12"], "laguerre_g4_n12.json"),
    (["gauss", "--gmax", "8"], "gauss_g8.json"),
    (["glag-k1", "--rmax2", "6", "--nmax", "10"], "glag_k1_r6_n10.json"),
    (["vk", "--gmax", "8"], "vk_gmax8.json"),
]
TABLE_GOLDENS = [
    *JSON_GOLDENS,
    *[([*argv, "--format", "csv"], name.replace(".json", ".csv")) for argv, name in JSON_GOLDENS],
]


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv("HZLAG_CACHE_DIR", str(d))
    return d


def run_cli(args, cache_dir):
    """Run the CLI in a subprocess so stdout bytes are captured exactly.

    The child's environment is minimal, so that its output cannot depend on
    anything inherited from the caller's environment. Only `HZLAG_CACHE_DIR`
    and `PYTHONPATH` set to the package's source root (the directory holding
    the `hzlag` imported here, absolute so the tests run from any directory)
    are passed, besides an empty `PATH`, and `PYTHONDONTWRITEBYTECODE` when
    this process writes no bytecode.
    """
    return subprocess.run([sys.executable, "-m", "hzlag.cli", *args],
                          capture_output=True, env=_child_env(cache_dir))


def _child_env(cache_dir) -> dict:
    src_root = pathlib.Path(hzlag.__file__).resolve().parent.parent
    env = {"PATH": "", "PYTHONPATH": str(src_root), "HZLAG_CACHE_DIR": str(cache_dir)}
    if sys.dont_write_bytecode:  # PYTHONDONTWRITEBYTECODE or -B: nor does the child
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# modules outside hzlag that the probe reports: decimal, which only the
# engines need, fractions, which only the vk engine needs, and three
# that no process should load (dataclasses also loads inspect, ast, dis and
# tokenize; pkgutil is what a lookup through hzlag.__getattr__ loads)
_REPORTED = ("decimal", "fractions", "dataclasses", "inspect", "pkgutil")

# runs cli.main(ARGV) and writes, as the last line of stderr, the hzlag
# submodules the process loaded and those of _REPORTED that it loaded
_LOADED = f"""
import sys
import hzlag.cli
try:
    rc = hzlag.cli.main(sys.argv[1:])
except SystemExit as e:
    rc = e.code
print(*sorted(m for m in sys.modules if m.startswith("hzlag.") or m in {_REPORTED!r}),
      file=sys.stderr)
sys.exit(rc)
"""


def loaded_modules(args, cache_dir) -> set:
    """The hzlag submodules, and the modules of _REPORTED among them, that
    a fresh process loads to run ``hzlag ARGS``."""
    r = subprocess.run([sys.executable, "-c", _LOADED, *args],
                       capture_output=True, env=_child_env(cache_dir))
    assert r.returncode == 0, r.stderr
    return set(r.stderr.decode().splitlines()[-1].split())


def _with_digest(body: bytes) -> bytes:
    """A cache entry holding ``body``: its sha256 line, then the bytes."""
    return hashlib.sha256(body).hexdigest().encode() + b"\n" + body


def _rewrite_body(path, edit):
    """Replace the text after a cache entry's digest line by edit(that text),
    keeping the digest line, so the entry no longer matches it."""
    digest, body = path.read_text().split("\n", 1)
    path.write_text(f"{digest}\n{edit(body)}")


def _with_entries(edit):
    """A corruption that parses the cached JSON, edits its entries list in
    place and writes it back."""
    def corrupt(text: str) -> str:
        payload = json.loads(text)
        edit(payload["entries"])
        return json.dumps(payload)
    return corrupt


def _assert_named_corrupt(path, commands, capsys):
    """Each command exits 2, prints nothing to stdout and one line naming
    ``path`` as a corrupt cache entry to stderr."""
    for args in commands:
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "", args
        err = captured.err
        assert err.startswith(f"error: corrupt cache entry {path}: "), err
        assert err.endswith("; delete the file or pass --no-cache\n") and err.count("\n") == 1, err


def test_gen_laguerre_csv(cache, capsys):
    assert main(["gen", "laguerre", "--gmax", "3", "--nmax", "10",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "g,n,value"
    assert "1,2,10/1" in lines
    assert "0,2,2/1" in lines
    assert len(lines) == 1 + 4 * 11


def test_gen_vk_matches_golden(cache, capsys):
    assert main(["gen", "vk", "--gmax", "2"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


@pytest.mark.parametrize("argv,name", TABLE_GOLDENS)
def test_gen_integer_tables_match_golden(cache, capsys, argv, name):
    golden = (GOLDEN.parent / name).read_text()
    assert main(["gen", *argv, "--no-cache"]) == 0
    assert capsys.readouterr().out == golden
    assert main(["gen", *argv]) == 0  # computed into the cache
    assert main(["gen", *argv]) == 0  # read back from it
    assert capsys.readouterr().out == golden * 2


def _engine_yields_decimals(argv) -> bool:
    """Whether the engine of the gen request ``argv`` (an ensemble, then its
    bound flags in ENSEMBLES order) yields Decimal values."""
    _, _, values = next(ENSEMBLES[argv[0]].items(*map(int, argv[2::2])))
    return type(values[0]) is decimal.Decimal


# the gen requests of the ensembles whose engines run over Decimal
DECIMAL_GOLDENS = [(argv, name) for argv, name in JSON_GOLDENS if _engine_yields_decimals(argv)]


def test_decimal_engines_are_the_laguerre_and_gauss_ones():
    assert [argv[0] for argv, _ in DECIMAL_GOLDENS] == ["laguerre", "gauss"]


@pytest.mark.parametrize("argv,name", DECIMAL_GOLDENS)
def test_gen_in_a_callers_low_precision_context_writes_golden_bytes(cache, capsys, argv, name):
    # a caller's context that would round every entry to 5 digits, silently
    golden = (GOLDEN.parent / name).read_text()
    with decimal.localcontext(decimal.Context(prec=5, traps=[])) as caller:
        for extra in (["--no-cache"], [], []):  # computed, into the cache, read back
            assert main(["gen", *argv, *extra]) == 0
            assert capsys.readouterr().out == golden
            assert decimal.getcontext() is caller and caller.prec == 5


@pytest.mark.parametrize("no_cache", [False, True], ids=["cached", "no-cache"])
@pytest.mark.parametrize("argv,name", DECIMAL_GOLDENS)
def test_decimal_entry_beyond_the_precision_raises(cache, capsys, monkeypatch, argv, name,
                                                   no_cache):
    # with 10 digits of precision the entries of these tables (up to 17 and
    # 23 digits) cannot be made exactly: the engine raises, it does not round
    exact = engines._EXACT.copy()
    exact.prec = 10
    monkeypatch.setattr(engines, "_EXACT", exact)
    assert main(["gen", *argv, *(["--no-cache"] if no_cache else [])]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.split(":")[0] == "internal error", captured.err
    assert captured.err.split(":")[1].strip() in {"Inexact", "Rounded", "InvalidOperation"}
    assert not cache.exists() or list(cache.iterdir()) == []


@pytest.mark.parametrize("bad", ["abc", "2/4", "5/1", "007"])
def test_gen_csv_names_corrupt_cache_entry(cache, tmp_path, capsys, bad):
    argv = ["gen", "vk", "--gmax", "2", "--format", "csv"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    path = cache_path({"ensemble": "vk", "gmax": 2})
    _rewrite_body(path, _with_entries(lambda entries: entries[3].update(value=bad)))
    out = tmp_path / "t.csv"
    _assert_named_corrupt(path, (argv, [*argv, "--out", str(out)]), capsys)
    assert not out.exists()
    assert main([*argv, "--no-cache"]) == 0
    assert capsys.readouterr().out == want


def test_truncated_cache_entry_is_named_corrupt(cache, tmp_path, capsys):
    argv = ["gen", "vk", "--gmax", "1"]
    report = tmp_path / "report.json"
    verify = ["verify", "--suite", "constraints", "--gmax", "1", "--out", str(report)]
    assert main(argv) == 0
    want = capsys.readouterr().out
    assert main(verify) == 0  # loads the same entry through the cache
    capsys.readouterr()
    report.unlink()
    path = cache_path({"ensemble": "vk", "gmax": 1})
    path.write_bytes(path.read_bytes()[:100])
    _assert_named_corrupt(path, (argv, [*argv, "--format", "csv"], verify), capsys)
    assert not report.exists()
    assert main([*argv, "--no-cache"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("cut", [
    pytest.param(lambda body: body[:body.rindex(b"}")], id="last-line-missing"),
    pytest.param(lambda body: body[:body.rindex(b"  ],\n")], id="closing-lines-missing"),
    pytest.param(lambda body: body[:body.index(b"    },\n", 2000) + 7], id="after-an-entry"),
    pytest.param(lambda body: body[:body.index(b"    {\n", 2000) + 6], id="inside-an-entry"),
    pytest.param(lambda body: body[:body.index(b'"entries"')], id="in-the-header"),
])
def test_entry_list_cut_under_its_digest_is_named_corrupt(cache, tmp_path, capsys, cut):
    # a cut entry under its own digest: its end tells, and a JSON gen, a CSV
    # gen and a table read name it as corrupt before serving a byte of it
    gen = ["gen", "laguerre", "--gmax", "3", "--nmax", "10"]
    csv = [*gen, "--format", "csv"]
    out = tmp_path / "t.csv"
    out.write_bytes(b"kept\n")
    verify = ["verify", "--suite", "constraints", "--gmax", "1"]
    assert main(verify) == 0
    capsys.readouterr()
    path = cache_path({"ensemble": "laguerre", "gmax": 3, "nmax": 10})
    path.write_bytes(_with_digest(cut(path.read_bytes().split(b"\n", 1)[1])))
    for argv in (gen, csv, [*csv, "--out", str(out)], verify):
        # what _assert_named_corrupt checks, with the fault named in full
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", (
            f"error: corrupt cache entry {path}: its entry list does not open and close as gen "
            "writes it; delete the file or pass --no-cache\n")), argv
    assert out.read_bytes() == b"kept\n"


def test_empty_entry_list_under_its_digest_is_named_corrupt(cache, tmp_path, capsys):
    # gen never writes an empty entry list (every table has an entry), so a
    # vk --gmax 1 entry emptied under a digest rewritten to match ends as no
    # gen JSON does: a JSON gen, a CSV gen and a table read name it as
    # corrupt, and nothing is written to stdout or --out
    gen = ["gen", "vk", "--gmax", "1"]
    csv = [*gen, "--format", "csv"]
    outs = tmp_path / "t.json", tmp_path / "t.csv"
    verify = ["verify", "--suite", "constraints", "--gmax", "1"]
    assert main(verify) == 0
    capsys.readouterr()
    path = cache_path({"ensemble": "vk", "gmax": 1})
    payload = json.loads(path.read_bytes().split(b"\n", 1)[1])
    body = json.dumps({**payload, "entries": []}, sort_keys=True, indent=2) + "\n"
    path.write_bytes(_with_digest(body.encode()))
    for argv in (gen, [*gen, "--out", str(outs[0])], csv, [*csv, "--out", str(outs[1])], verify):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", (
            f"error: corrupt cache entry {path}: its entry list does not open and close as gen "
            "writes it; delete the file or pass --no-cache\n")), argv
    assert not any(out.exists() for out in outs)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda body: body, id="as-gen-writes-it"),
    pytest.param(lambda body: body[:body.index(b'"entries"')], id="in-the-header"),
    pytest.param(lambda body: body.replace(b'  "entries": [\n', b'  "entries": [ \n'),
                 id="list-never-opens"),
    # joined to the line before, which leaves a JSON of 5k + 3 lines
    pytest.param(lambda body: body.replace(b'",\n  "entries": [\n', b'",  "entries": [\n'),
                 id="list-opens-mid-line"),
    pytest.param(lambda body: body.replace(b"    }\n  ],", b"    }  ],"),
                 id="close-on-the-last-entry-line"),
    pytest.param(lambda body: body[:body.rindex(b"}")], id="last-line-missing"),
    pytest.param(lambda body: body.replace(b'"\n}\n', b'"\n}\n\n'), id="line-after-the-end"),
    pytest.param(lambda body: body[:body.rindex(b"  ],\n")], id="closing-lines-missing"),
    pytest.param(lambda body: body[:body.rindex(b"    },\n") + 7] + tables._ENDING,
                 id="comma-after-the-last-entry"),
    pytest.param(lambda body: body.replace(b'      "k": -3,\n', b"", 1), id="entry-line-missing"),
    pytest.param(lambda body: body[:body.index(b"[\n") + 2] + b"\n" + tables._ENDING,
                 id="empty-as-payload-to-json-writes-it"),
    pytest.param(lambda body: body[:body.index(b"[\n") + 2] + tables._ENDING, id="empty"),
])
@pytest.mark.parametrize("buf", [7, 1 << 16])
def test_entry_reader_names_a_list_that_does_not_open_and_close_as_gen_writes_it(buf, edit):
    # the reader's own check, which a cache entry's end and digest pass
    # before it, and which alone guards a --no-cache table
    body = edit(GOLDEN.read_bytes())
    with tempfile.TemporaryFile() as src, mock.patch.object(tables, "_BUF", buf):
        src.write(body)
        src.seek(0)
        if body == GOLDEN.read_bytes():
            pieces = list(tables._entry_texts(src, ("g", "k")))
            assert len(pieces) > 1
            assert [sum(texts, []) for texts in zip(*pieces)] == [
                [str(e[k]).encode() for e in json.loads(body)["entries"]]
                for k in ("g", "k", "value")]
        else:
            with pytest.raises(tables.UsageError, match=tables._LIST_FAULT):
                list(tables._entry_texts(src, ("g", "k")))


VK1 = ["vk", "--gmax", "1"]
VK2 = ["vk", "--gmax", "2"]
# --out placeholders that test_bad_input_exits_2 replaces by paths under its
# temporary directory
OUT_IN_MISSING_DIR, OUT_DIR = "<missing-dir>/x", "<dir>"
LAGUERRE_5_20 = ["laguerre", "--gmax", "5", "--nmax", "20"]


@pytest.mark.parametrize("data", [
    "[]",
    '{"ensemble": "vk", "entries": [{"value": "1"}]}',
    # the right header, an entry without its int keys
    GOLDEN.read_text().replace('"g": 0', '"g": "0"', 1).replace('"gmax": 2', '"gmax": 1'),
    # (gen job, corruption of its cached entry): the right header over the
    # entries of other bounds (the g = 2 rows), an entry repeated or missing
    pytest.param((VK1, lambda text: GOLDEN.read_text().replace('"gmax": 2', '"gmax": 1')),
                 id="vk-rows-past-gmax"),
    pytest.param((VK1, _with_entries(lambda entries: entries.append(entries[-1]))),
                 id="vk-last-entry-twice"),
    pytest.param((VK1, _with_entries(lambda entries: entries.pop())), id="vk-last-entry-missing"),
    pytest.param((LAGUERRE_5_20, _with_entries(lambda entries: entries.pop(30))),
                 id="laguerre-entry-30-missing"),
])
def test_cache_entry_that_is_not_a_gen_payload_is_named_corrupt(cache, tmp_path, capsys, data):
    # it parses as JSON, but it is not the bytes of the entry's digest line
    job, corrupt = (VK1, lambda text: data) if type(data) is str else data
    argv = ["gen", *job, "--format", "csv"]
    report = tmp_path / "report.json"
    verify = ["verify", "--suite", "constraints", "--gmax", "1", "--out", str(report)]
    assert main(argv) == 0
    want = capsys.readouterr().out
    bounds = {job[i][2:]: int(job[i + 1]) for i in range(1, len(job), 2)}
    path = cache_path({"ensemble": job[0], **bounds})
    _rewrite_body(path, corrupt)
    _assert_named_corrupt(path, (argv, [*argv, "--out", str(tmp_path / "t.csv")], verify), capsys)
    assert not report.exists() and not (tmp_path / "t.csv").exists()
    assert main([*argv, "--no-cache"]) == 0
    assert capsys.readouterr().out == want


def test_gen_json_names_cache_entry_with_foreign_ends(cache, capsys):
    # a rewritten entry that still parses is not what gen writes: JSON output
    # copies the cached bytes, so they must be the ones of the digest line
    argv = ["gen", "vk", "--gmax", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    path = cache_path({"ensemble": "vk", "gmax": 2})
    for edit in (lambda text: json.dumps(json.loads(text)),
                 lambda text: GOLDEN.read_text().replace('"gmax": 2', '"gmax": 3')):
        _rewrite_body(path, edit)
        _assert_named_corrupt(path, (argv,), capsys)
    path.write_bytes(_with_digest(GOLDEN.read_bytes()))
    assert main(argv) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


@pytest.mark.parametrize("edit", [
    pytest.param(lambda digest, body: body, id="no-digest-line"),
    pytest.param(lambda digest, body: b"", id="empty"),
    pytest.param(lambda digest, body: digest.upper() + b"\n" + body, id="upper-case-digest"),
    pytest.param(lambda digest, body: digest[:-1] + b"\n" + body, id="short-digest"),
    pytest.param(lambda digest, body: digest + b"\r\n" + body, id="crlf"),
    pytest.param(lambda digest, body: digest + b"\n" + body + b"\n", id="extra-newline"),
])
def test_entry_that_does_not_match_its_digest_line_is_named_corrupt(cache, tmp_path, capsys,
                                                                    edit):
    argv = ["gen", *VK1]
    report = tmp_path / "report.json"
    verify = ["verify", "--suite", "constraints", "--gmax", "1", "--out", str(report)]
    assert main(argv) == 0
    want = capsys.readouterr().out
    path = cache_path({"ensemble": "vk", "gmax": 1})
    path.write_bytes(edit(*path.read_bytes().split(b"\n", 1)))
    out = tmp_path / "t.out"
    _assert_named_corrupt(path, (argv, [*argv, "--out", str(out)], [*argv, "--format", "csv"],
                                 [*argv, "--format", "csv", "--out", str(out)], verify), capsys)
    assert not out.exists() and not report.exists()
    assert main([*argv, "--no-cache"]) == 0
    assert capsys.readouterr().out == want


def _pre_digest_path(cache, args: dict) -> pathlib.Path:
    """Where a gen entry of the layout before the digest line was: the JSON
    alone, under a key without the format field."""
    key = json.dumps({"tool": hzlag.__version__, "kind": "gen", "args": args}, sort_keys=True)
    return cache / f"gen-{hashlib.sha256(key.encode()).hexdigest()[:32]}.json"


def test_entry_of_the_previous_cache_format_is_recomputed(cache, capsys):
    # an entry of the layout before the digest line is never read, and is
    # removed when the same table's entry is written
    args = {"ensemble": "vk", "gmax": 2}
    old = _pre_digest_path(cache, args)
    stale = GOLDEN.read_text().replace('"value": "-1/2"', '"value": "-3/2"', 1)
    assert stale != GOLDEN.read_text()
    cache.mkdir()
    old.write_text(stale)
    csv = ["gen", "vk", "--gmax", "2", "--format", "csv"]
    assert main([*csv, "--no-cache"]) == 0
    assert old.read_text() == stale  # --no-cache touches no cache entry
    want = GOLDEN.read_text() + capsys.readouterr().out
    assert main(["gen", "vk", "--gmax", "2"]) == 0
    assert main(csv) == 0
    assert capsys.readouterr().out == want
    assert cache_path(args) != old
    assert cache_path(args).read_bytes() == _with_digest(GOLDEN.read_bytes())
    assert not old.exists()  # removed once its table's new entry is written
    old.write_text(stale)
    assert main(["gen", "vk", "--gmax", "2"]) == 0  # a hit writes and removes nothing
    assert old.read_text() == stale


def test_previous_cache_format_entry_that_cannot_be_removed_is_left(cache, capsys):
    # a directory under the pre-digest entry's name: gen serves the table
    # and leaves it there
    old = _pre_digest_path(cache, {"ensemble": "vk", "gmax": 2})
    old.mkdir(parents=True)
    assert main(["gen", "vk", "--gmax", "2"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
    assert old.is_dir()


@pytest.mark.parametrize("piece", [1, 60, 300])
def test_csv_is_converted_piece_by_piece(cache, capsys, monkeypatch, piece):
    # reads of 1 byte: every entry takes many reads; 60: the first read ends
    # inside the JSON header; 300: a few entries each
    monkeypatch.setattr(tables, "_BUF", piece)
    for argv, name in TABLE_GOLDENS[len(JSON_GOLDENS):]:
        header = (GOLDEN.parent / name.replace(".csv", ".json")).read_bytes()
        assert piece == 300 or header.index(b'"entries": [') + 14 > piece
        assert main(["gen", *argv]) == 0  # computed into the cache
        assert main(["gen", *argv]) == 0  # read back from it
        assert capsys.readouterr().out == (GOLDEN.parent / name).read_text() * 2, name


class _ReadLog:
    """A file that passes every call on to f and logs the size of each
    read, as ("read", size)."""

    def __init__(self, f, sizes: list):
        self.f, self.sizes = f, sizes

    def read(self, *size):
        self.sizes.append(("read", size[0] if size else None))
        return self.f.read(*size)

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def test_warm_gen_reads_its_entry_in_bounded_pieces(cache, capsys, monkeypatch):
    for argv, name in TABLE_GOLDENS:
        assert main(["gen", *argv]) == 0  # computed into the cache
    capsys.readouterr()
    sizes = []
    monkeypatch.setattr(tables, "open", lambda *a, **k: _ReadLog(open(*a, **k), sizes),
                        raising=False)
    for buf in (100, 128):
        monkeypatch.setattr(tables, "_BUF", buf)
        for argv, name in TABLE_GOLDENS:
            sizes.clear()
            assert main(["gen", *argv]) == 0
            golden = (GOLDEN.parent / name).read_text()
            assert capsys.readouterr().out == golden, name
            # the digest line, the JSON hashed buf bytes at a time, then the
            # JSON served buf bytes at a time, as JSON or as CSV; each pass
            # ends at an empty read
            data = (GOLDEN.parent / name.replace(".csv", ".json")).read_bytes()
            reads = [("read", buf)] * (-(-len(data) // buf) + 1)
            assert sizes == [("read", 65), *reads, *reads], (buf, name)


def test_cold_gen_serves_its_new_entry_without_reading_it_back(cache, capsys, monkeypatch):
    # a miss hashes the bytes as they are written and serves them through the
    # descriptor that wrote them: _read_entry opens no entry to read it back
    sizes = []
    monkeypatch.setattr(tables, "open", lambda *a, **k: _ReadLog(open(*a, **k), sizes),
                        raising=False)
    for argv, name in TABLE_GOLDENS:
        for f in cache.glob("*"):
            f.unlink()  # each request is a miss
        sizes.clear()
        assert main(["gen", *argv]) == 0
        assert capsys.readouterr().out == (GOLDEN.parent / name).read_text(), name
        assert sizes == [], name
        assert main(["gen", *argv]) == 0  # a hit still checks the digest first
        assert capsys.readouterr().out == (GOLDEN.parent / name).read_text(), name
        assert sizes[0] == ("read", 65), name
        assert all(size <= tables._BUF for _, size in sizes), name


@pytest.mark.parametrize("edit", [
    pytest.param(lambda entry: entry[:-1] + b"?", id="wrong-last-byte"),
    pytest.param(lambda entry: entry[:-1], id="last-byte-missing"),
    pytest.param(lambda entry: entry[:65 + 3 * 128], id="cut-at-a-chunk-boundary"),
    pytest.param(lambda entry: entry[:30], id="cut-in-the-digest-line"),
])
def test_entry_of_several_chunks_that_fails_its_digest_writes_nothing(cache, tmp_path, capsys,
                                                                      monkeypatch, edit):
    monkeypatch.setattr(tables, "_BUF", 128)
    argv = ["gen", "vk", "--gmax", "8"]
    assert main(argv) == 0
    capsys.readouterr()
    path = cache_path({"ensemble": "vk", "gmax": 8})
    entry = path.read_bytes()
    assert len(entry) > 100 * 128
    path.write_bytes(edit(entry))
    out = tmp_path / "t.out"
    _assert_named_corrupt(path, (argv, [*argv, "--out", str(out)], [*argv, "--format", "csv"],
                                 [*argv, "--format", "csv", "--out", str(out)]), capsys)
    assert not out.exists()


def test_no_cache_without_a_usable_temporary_directory_exits_2(cache, tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    out, report = tmp_path / "t.out", tmp_path / "report.json"
    gen = ["gen", *VK1, "--no-cache"]
    for argv in (gen, [*gen, "--format", "csv", "--out", str(out)],
                 ["verify", "--suite", "constraints", "--gmax", "1", "--no-cache",
                  "--out", str(report)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        err = captured.err
        assert err.startswith("error: cannot create a temporary file for --no-cache ("), err
        assert err.count("\n") == 1, err
    assert not out.exists() and not report.exists()
    assert not cache.exists()


def test_warm_reads_leave_the_cache_unchanged(cache, tmp_path, capsys):
    jobs = [["gen", *VK1], ["gen", *VK1, "--format", "csv"], ["gen", *LAGUERRE_5_20],
            ["verify", "--suite", "constraints", "--gmax", "1"]]
    for argv in jobs:
        assert main(argv) == 0
    for f in cache.iterdir():  # an earlier mtime, so a rewrite would show
        os.utime(f, ns=(10**18, 10**18))

    def state():
        return {f.name: (f.stat().st_size, f.stat().st_mtime_ns) for f in cache.iterdir()}

    before = state()
    assert len(before) == 5  # vk 1, laguerre 5/20 and 3/10, glag-k1 4/8, gauss 1
    for argv in jobs:
        assert main(argv) == 0
    assert state() == before


def test_gen_entries_over_4300_digits(cache, capsys):
    # C_1^(800) has 4431 digits, over CPython's default int <-> str limit
    argv = ["gen", "laguerre", "--gmax", "800", "--nmax", "1"]
    assert main([*argv, "--no-cache"]) == 0
    out = capsys.readouterr().out
    values = {(e["g"], e["n"]): e["value"] for e in json.loads(out)["entries"]}
    assert values[(800, 1)] == str(c1_closed_form(800))
    assert len(values[(800, 1)]) > 4300
    assert main(argv) == 0  # computed into the cache
    assert main(argv) == 0  # read back from it
    assert capsys.readouterr().out == out * 2
    assert main([*argv, "--format", "csv"]) == 0
    assert f"800,1,{values[(800, 1)]}/1\n" in capsys.readouterr().out


def _json_reference(payload: dict) -> bytes:
    """The gen JSON of a payload whose entries are rows ``(i, j0, values)``,
    as json.dumps renders it with one entry per value, the value as a
    string."""
    k1, k2 = ENSEMBLES[payload["ensemble"]].keys
    entries = [{k1: i, k2: j, "value": str(v)}
               for i, j0, values in payload["entries"] for j, v in enumerate(values, j0)]
    return (json.dumps({**payload, "entries": entries}, sort_keys=True, indent=2)
            + "\n").encode()


class _RecordingSink:
    """A binary sink that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, b: bytes) -> int:
        self.writes.append(bytes(b))
        return len(b)


def _json_bytes(payload: dict) -> bytes:
    buf = io.BytesIO()
    payload_to_json(payload, buf)
    return buf.getvalue()


def _entries_of_a_write(b: bytes, row_key: str) -> list[int]:
    """The row index of each entry in one entries write of the gen JSON,
    which must hold whole entries: it starts at an entry's "{" (after the
    ",\n" that ends the entry before, if any) and ends at an entry's "}"."""
    assert b.startswith((b"    {", b",\n    {")) and b.endswith(b"\n    }"), b[:20] + b[-20:]
    rows = [int(i) for i in re.findall(rb'\n      "%s": (-?\d+),\n' % row_key.encode(), b)]
    assert len(rows) == b.count(b'"value": '), b[:200]
    return rows


@pytest.mark.parametrize("entries", [64, 7, 1])
@pytest.mark.parametrize("ensemble,bounds", [
    ("laguerre", {"gmax": 4, "nmax": 12}),
    ("gauss", {"gmax": 8}),
    ("vk", {"gmax": 4}),
    ("glag-k1", {"rmax2": 6, "nmax": 10}),
])
def test_payload_to_json_matches_json_dumps(monkeypatch, ensemble, bounds, entries):
    # 64 entries: each row in one write; 7: a row of 13 entries (laguerre)
    # in two, 11 (glag-k1) in two, 17 (vk) in three; 1: one entry per write
    monkeypatch.setattr(tables, "_SLICE", entries)
    streamed = table_payload(ensemble, bounds)
    # the entries are an iterator that can be read once; take them as a list
    # once, to render and count them several times
    payload = {**streamed, "entries": list(streamed["entries"])}
    want = _json_reference(payload)
    assert _json_bytes(payload) == want
    assert _json_bytes(table_payload(ensemble, bounds)) == want  # rendered from the iterator
    sink = _RecordingSink()
    payload_to_json(payload, sink)
    assert b"".join(sink.writes) == want
    # the header, the entries a slice of a row per write, then the footer
    head, *slices, foot = sink.writes
    assert head.endswith(b'"entries": [\n') and foot.startswith(b"\n  ]")
    assert b'"value": ' not in head + foot
    # each write holds whole entries of one row, _SLICE of them but at a
    # row's end, where it holds the rest of the row
    rows = [_entries_of_a_write(b, ENSEMBLES[ensemble].keys[0]) for b in slices]
    assert [b.startswith(b",\n") for b in slices] == [False] + [True] * (len(slices) - 1)
    assert [len(set(r)) for r in rows] == [1] * len(slices)
    assert [len(r) for r in rows] == [min(entries, len(values) - a)
                                      for _, _, values in payload["entries"]
                                      for a in range(0, len(values), entries)]


def test_a_long_row_is_written_in_slices():
    # a laguerre row runs to 1.3 MB of JSON at nmax 2000; it is rendered and
    # written a slice of _SLICE entries at a time (the first rows' entries
    # grow from 58 to 1,275 bytes)
    payload = table_payload("laguerre", {"gmax": 2, "nmax": 2000})
    payload["entries"] = list(payload["entries"])
    sink = _RecordingSink()
    payload_to_json(payload, sink)
    assert b"".join(sink.writes) == _json_reference(payload)
    head, *slices, foot = sink.writes
    rows = [_entries_of_a_write(b, "g") for b in slices]
    assert len(slices) == 3 * -(-2001 // tables._SLICE)
    assert all(len(set(r)) == 1 and len(r) <= tables._SLICE for r in rows)
    longest = max(map(len, b"".join(slices).split(b",\n    {"))) + 7  # with its ",\n    {"
    assert max(map(len, slices)) <= tables._SLICE * longest


def test_table_payload_holds_no_strings():
    payload = table_payload("vk", {"gmax": 2})
    assert set(payload) == {"schema", "ensemble", "bounds", "entries"}
    rows = list(payload["entries"])  # an iterator of rows: read it once
    # row g holds k = -3g..g: 1, 5 and 9 entries
    assert [(g, k0, len(values)) for g, k0, values in rows] == [(0, 0, 1), (1, -3, 5), (2, -6, 9)]
    assert all(type(g) is int and type(k0) is int and type(values) is list
               and all(type(v) in (int, Fraction) for v in values) for g, k0, values in rows)


class _CountingSink:
    """A binary sink that keeps only the number of bytes written to it."""

    def __init__(self):
        self.size = 0

    def write(self, b: bytes) -> int:
        self.size += len(b)
        return len(b)


@pytest.mark.parametrize("ensemble,bounds", [
    ("laguerre", {"gmax": 60, "nmax": 120}),
    ("glag-k1", {"rmax2": 60, "nmax": 120}),
    ("gauss", {"gmax": 80}),
])
def test_gen_json_is_made_holding_only_a_few_rows(ensemble, bounds):
    # the engine yields its table a row at a time and keeps only the rows its
    # relation reads, so the Python objects alive at once stay far below the
    # bytes written (whole tables held as ints took 1.0 to 1.8 times them);
    # hzlag.recursions is imported with this file, so its import is not traced
    sink = _CountingSink()
    tracemalloc.start()
    try:
        payload_to_json(table_payload(ensemble, bounds), sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * sink.size, (peak, sink.size)


# bounds whose shapes hold keys of two digits (and vk's, negative keys), so
# that a shaped table exercises load_table's reading of them
_SHAPED_BOUNDS = {"laguerre": (1, 11), "gauss": (11,), "vk": (4,), "glag-k1": (1, 11)}
# the error of an entry whose values parse but whose keys are not its shape's
_SHAPE_FAULT = (r"^corrupt cache entry .*: its (key \(-?\d+, -?\d+\) is (out of range|missing)"
                r"|entries repeat a key);")


@pytest.mark.parametrize("ensemble,bounds", [
    (e, b) for e, bs in {"laguerre": [(0, 0), (2, 5), (4, 1)], "gauss": [(1,), (2,), (5,)],
                         "vk": [(0,), (1,), (4,)], "glag-k1": [(0, 0), (3, 4), (1, 7)]}.items()
    for b in bs])
def test_ensemble_shape_is_the_keys_its_engine_yields(ensemble, bounds):
    # load_table checks a cached entry's keys against ENSEMBLES' shape, which
    # restates the rows each engine in hzlag.engines yields
    spec = ENSEMBLES[ensemble]
    assert {i: range(j0, j0 + len(vs)) for i, j0, vs in spec.items(*bounds)} == \
        spec.shape(*bounds)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(ENSEMBLES)),
       st.lists(st.tuples(st.integers(-300, 300), st.integers(-300, 300),
                          st.lists(st.one_of(st.integers(-10**40, 10**40), st.fractions()),
                                   max_size=5)),
                max_size=6),
       st.booleans())
def test_table_writers_on_generated_entries(ensemble, rows, shaped):
    spec = ENSEMBLES[ensemble]
    k1, k2 = spec.keys
    bounds = dict(zip(spec.bounds, _SHAPED_BOUNDS[ensemble]))
    shape = spec.shape(*bounds.values())
    if shaped:  # the values laid out in the keys of a table of these bounds, padded with 0
        values = iter([v for *_, vs in rows for v in vs])
        rows = [(i, js.start, [next(values, 0) for _ in js]) for i, js in shape.items()]
    payload = {"schema": "hzlag-table/1", "ensemble": ensemble, "bounds": bounds, "entries": rows}
    data = _json_bytes(payload)
    keys = sorted((a, b) for a, b0, values in rows for b in range(b0, b0 + len(values)))
    if not keys:  # every gen table has an entry, and no reader serves an empty list
        with (tempfile.TemporaryFile() as src,
              pytest.raises(tables.UsageError, match=tables._LIST_FAULT)):
            src.write(data)
            src.seek(0)
            payload_to_csv(src, ensemble, os.devnull)
        return
    assert data == _json_reference(payload)
    want = "".join(f"{a},{b},{q.numerator}/{q.denominator}\n"
                   for a, b0, values in rows for b, q in enumerate(map(Fraction, values), b0))
    # load_table reads ints, and Fractions only where there is a denominator
    table = {}
    for a, b0, values in rows:
        table.setdefault(a, {}).update(
            (b, int(v) if v.denominator == 1 else Fraction(v)) for b, v in enumerate(values, b0))
    # whole in one read, and in reads of 7 bytes, which end at every place
    # in an entry over a few entries
    for buf in (tables._BUF, 7):
        with (mock.patch.object(tables, "_BUF", buf), tempfile.TemporaryDirectory() as d,
              mock.patch.dict(os.environ, {"HZLAG_CACHE_DIR": d})):
            out = os.path.join(d, "t.csv")
            payload_to_csv(io.BytesIO(data), ensemble, out)
            assert pathlib.Path(out).read_text() == f"{k1},{k2},value\n{want}"
            cache_path({"ensemble": ensemble, **bounds}).write_bytes(_with_digest(data))
            # an entry is read only when it holds each key of the bounds' shape once
            if keys != sorted((i, j) for i, js in shape.items() for j in js):
                with pytest.raises(tables.UsageError, match=_SHAPE_FAULT):
                    tables.load_table(ensemble, bounds, True)
                continue
            got = tables.load_table(ensemble, bounds, True)
        assert got == table
        assert [type(v) for row in got.values() for v in row.values()] == \
            [type(v) for row in table.values() for v in row.values()]


def test_load_table_holds_little_besides_the_table(cache):
    # the entry (1.56 MB) is read a piece at a time, so the peak stays within
    # a few pieces of the table returned, where a parse of the whole entry
    # would hold several times its size
    bounds = {"gmax": 60, "nmax": 120}
    tables.table_bytes("laguerre", bounds, True).close()
    assert cache_path({"ensemble": "laguerre", **bounds}).stat().st_size > 1_500_000
    tracemalloc.start()
    try:
        table = tables.load_table("laguerre", bounds, True)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, table.values())) == 61 * 121
    assert peak - size <= 8 * tables._BUF, (peak, size)


def test_gen_all_tables_script_matches_gen(cache, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "gen_all_tables", ROOT / "scripts" / "gen_all_tables.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    outdir = tmp_path / "tables"
    assert script.main([str(outdir)]) == 0
    assert len(list(outdir.iterdir())) == 2 * len(script.JOBS)
    ref = tmp_path / "ref"
    for ensemble, bounds in script.JOBS:
        stem = ensemble + "-" + "-".join(f"{k}{v}" for k, v in sorted(bounds.items()))
        flags = [x for name, v in bounds.items() for x in (f"--{name}", str(v))]
        for fmt in ("json", "csv"):
            assert main(["gen", ensemble, *flags, "--format", fmt, "--out", str(ref)]) == 0
            assert (outdir / f"{stem}.{fmt}").read_bytes() == ref.read_bytes(), stem


def test_bench_script_workloads_are_valid_requests():
    # scripts/bench.py runs each workload in fresh processes; its argv must
    # name options the CLI accepts, within their bounds
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert {state for _, state in script.WORKLOADS.values()} == {"cold", "warm"}
    # no request is listed twice, and every operation of the benchmark is
    # listed: each gen table cold as JSON, warm as JSON and CSV, and verify-all
    listed = [(tuple(argv), state) for argv, state in script.WORKLOADS.values()]
    assert len(set(listed)) == len(listed)
    run = script.PERFBENCH
    for job in run.GEN_JOBS:
        for fmt, state in (("json", "cold"), ("json", "warm"), ("csv", "warm")):
            assert (tuple(run.gen_argv(job, fmt)), state) in listed, (job, fmt, state)
    assert (tuple(run.VERIFY_ARGS), "cold") in listed
    shifts = []  # the digits of each oracle dimension shift
    for argv, _ in script.WORKLOADS.values():
        args = cli.make_parser().parse_args(argv)
        if args.command == "verify":
            for flag, (_, lo, hi, *_) in cli.VERIFY_WINDOWS.items():
                assert lo <= getattr(args, flag) <= hi, argv
        elif args.command == "oracle":
            assert sum(map(int, args.mu.split(","))) <= WISHART_DEGREE_LIMIT, argv
            shifts += [len(k) for k in re.findall("[0-9]+", args.rows + args.cols)]
        else:
            spec = ENSEMBLES[args.ensemble]
            assert all(getattr(args, b) <= top for b, top in spec.bounds.items()), argv
    # the oracle queries include one at the digit limit of the shifts
    assert max(shifts) == cli.GEN_LIMITS["at_digits"], shifts


def _bench_copy(tmp_path, commit: bool = True) -> pathlib.Path:
    """tmp_path / "repo": a copy of what scripts/bench.py reads (itself,
    perfbench/run.py and src/) and a README, committed to a git repository
    of its own unless commit is false.  bench.py names the commit it
    measures, so it runs from such a copy: this tree need not be a git
    checkout."""
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for part in ("scripts/bench.py", "perfbench/run.py"):
        (repo / part).parent.mkdir()
        shutil.copy(ROOT / part, repo / part)
    (repo / "README.md").write_text("hzlag\n")
    if commit:
        git = ["git", "-C", str(repo), "-c", "user.name=hzlag", "-c",
               "user.email=hzlag@localhost", "-c", "commit.gpgsign=false"]
        for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "bench.py under test"]):
            subprocess.run([*git, *args], check=True, capture_output=True)
    return repo


def _bench_dirty(repo: pathlib.Path, path: str, when: str) -> bool:
    """The dirty flag of a one-run report of the copy's scripts/bench.py
    over one short workload, with a line appended to the copy's file path
    before the first run (when="before") or just after it (when="during")."""
    spec = importlib.util.spec_from_file_location("bench_copy", repo / "scripts" / "bench.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.WORKLOADS = {"oracle": (["oracle", "--mu", "1"], "cold")}
    measure, runs = script.measure, []

    def edit():
        with open(repo / path, "a") as f:
            f.write("# edited\n")

    def measure_then_edit(*args):
        sample = measure(*args)
        if when == "during" and not runs:
            edit()
        runs.append(args)
        return sample

    script.measure = measure_then_edit
    if when == "before":
        edit()
    handler = signal.getsignal(signal.SIGTERM)  # main() installs its own
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert script.main(["--runs", "1"]) == 0
    finally:
        signal.signal(signal.SIGTERM, handler)
    assert len(runs) == 2  # the untimed run and the timed one
    (report,) = repo.glob("BENCH_*.json")
    return json.loads(report.read_text())["dirty"]


@pytest.mark.parametrize("path,when,dirty", [
    ("README.md", "before", False),
    ("src/hzlag/wick.py", "before", True),
    ("src/hzlag/wick.py", "during", True),
], ids=["README", "src", "src-during-the-runs"])
def test_bench_script_marks_dirty_only_an_edited_src(tmp_path, path, when, dirty):
    # git is read before the first run and after the last, over src/ only
    assert _bench_dirty(_bench_copy(tmp_path), path, when) is dirty


def test_bench_script_outside_a_git_checkout_exits_1_before_any_run(tmp_path):
    repo = _bench_copy(tmp_path, commit=False)
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    # GIT_CEILING_DIRECTORIES: git looks for a repository in the copy alone
    r = subprocess.run([sys.executable, str(repo / "scripts" / "bench.py"), "--runs", "1"],
                       env={**os.environ, "TMPDIR": str(tmp),
                            "GIT_CEILING_DIRECTORIES": str(tmp_path)},
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error: git rev-parse ") and r.stderr.count("\n") == 1, r.stderr
    assert r.stdout == "" and list(tmp.iterdir()) == []  # no run started


def test_bench_script_removes_its_directory_on_sigterm(tmp_path):
    # scripts/bench.py keeps exported trees, bytecode and warm caches (tens
    # of MB) in a hzlag-bench-* temporary directory; stopped by SIGTERM
    # while a workload runs, it kills that run and removes the directory
    repo = _bench_copy(tmp_path)
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    proc = subprocess.Popen([sys.executable, str(repo / "scripts" / "bench.py"), "--runs", "1"],
                            env={**os.environ, "TMPDIR": str(tmp)}, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not any(tmp.glob("hzlag-bench-*")):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "no hzlag-bench-* directory after 60 s"
            time.sleep(0.01)
        time.sleep(0.2)  # into the first workload's run
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM, proc.stderr.read()
    finally:
        proc.kill()  # a no-op once it has exited
        proc.wait()
        proc.stderr.close()
    assert list(tmp.iterdir()) == []


@pytest.mark.parametrize("has_verify", [True, False], ids=["split", "before-the-split"])
def test_bench_child_imports_the_suites_before_its_floor(tmp_path, has_verify):
    # the floor counts the same code on both trees of --against: a tree with
    # hzlag.verify imports it before the first VmHWM reading, and a tree
    # from before the split, whose hzlag.cli holds the suites, has none
    repo = _bench_copy(tmp_path, commit=False)
    verify = repo / "src" / "hzlag" / "verify.py"
    if has_verify:  # its import leaves a mark in the child's cache directory
        verify.write_text(verify.read_text() + "\nimport os\nopen(os.path.join("
                          "os.environ['HZLAG_CACHE_DIR'], 'verify'), 'w').close()\n")
    else:
        verify.unlink()
    spec = importlib.util.spec_from_file_location("bench_copy", repo / "scripts" / "bench.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cache = tmp_path / "cache"
    cache.mkdir()
    script.measure(["--version"], repo / "src", cache, tmp_path / "pycache")
    assert [p.name for p in cache.iterdir()] == (["verify"] if has_verify else [])


def test_gen_peaks_near_its_import_floor(tmp_path):
    # a cold gen and a warm CSV gen of a 7 MB table, each in a fresh child
    # of scripts/bench.py that reads its own VmHWM after importing hzlag.cli,
    # the engines and the suites and at the end: the table is never held
    # whole, and the pipe's buffers stay small (with 1 MiB and 256 KiB
    # buffers both peaked 3-4 MB over the floor).  The wait4 ru_maxrss of a child starts at its
    # parent's RSS, so it cannot show this.
    # Both children read their bytecode from one cache that an untimed first
    # run fills, as bench.py does: cached bytecode lowers the floor, not the
    # peak, so this is the state with the least room under the bound, whether
    # or not the checkout has a __pycache__.
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    job = ["gen", "laguerre", "--gmax", "100", "--nmax", "200"]
    src, cache, pycache = ROOT / "src", tmp_path / "cache", tmp_path / "pycache"
    if script.measure(job, src, tmp_path / "prime", pycache)["peak_mb"] is None:
        pytest.skip("no VmHWM in /proc/self/status")
    cold = script.measure(job, src, cache, pycache)
    (entry,) = cache.iterdir()
    assert entry.stat().st_size >= 4 << 20
    warm = script.measure([*job, "--format", "csv"], src, cache, pycache)
    for name, m in (("cold", cold), ("warm csv", warm)):
        assert m["peak_mb"] - m["floor_mb"] <= 1.5, (name, m)  # MiB


# the largest accepted vk and laguerre requests, and the most each may peak
# over its import floor, in MiB, as a cold JSON gen and as a warm CSV gen.
# Measured (scripts/bench.py's measure, cached bytecode, 2-vCPU VM, Python
# 3.11.7): +2.34-2.95 cold at vk 150, +2.37-2.41 cold at laguerre 100/962
# and +1.26-1.30 warm CSV at both.  Each bound leaves at least 0.25 MB over
# the largest reading, about as much as VmHWM drifts with unrelated edits
_LARGEST_GENS = {
    "vk-150": (["gen", "vk", "--gmax", "150"], 3.25, 1.6),
    "laguerre-100-962": (["gen", "laguerre", "--gmax", "100", "--nmax", "962"], 2.75, 1.6),
}


@pytest.mark.parametrize("name", _LARGEST_GENS)
def test_largest_gens_peak_near_their_import_floor(tmp_path, name):
    # as test_gen_peaks_near_its_import_floor, at the largest requests gen
    # accepts for these two tables (39 and 60 MB of JSON)
    job, cold_bound, warm_bound = _LARGEST_GENS[name]
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    src, cache, pycache = ROOT / "src", tmp_path / "cache", tmp_path / "pycache"
    if script.measure(["gen", "vk", "--gmax", "1"], src, tmp_path / "prime",
                      pycache)["peak_mb"] is None:
        pytest.skip("no VmHWM in /proc/self/status")
    cold = script.measure(job, src, cache, pycache)
    warm = script.measure([*job, "--format", "csv"], src, cache, pycache)
    shutil.rmtree(cache)  # tens of MB
    assert cold["peak_mb"] - cold["floor_mb"] <= cold_bound, cold
    assert warm["peak_mb"] - warm["floor_mb"] <= warm_bound, warm


def test_benchmark_pins_hold(cache, tmp_path):
    # every output the benchmark checks, made in-process from its own
    # arguments (each gen table cold as JSON, then from its cache as CSV),
    # against the benchmark's pins, so a moved byte fails here first
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    ops = [bench.gen_argv(job, fmt) for job in bench.GEN_JOBS for fmt in ("json", "csv")]
    ops.append(bench.VERIFY_ARGS)
    assert sorted(map(bench.pin_key, ops)) == sorted(pins)
    out = tmp_path / "out"
    for argv in ops:
        pin = pins[bench.pin_key(argv)]
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pin["sha256"], argv
    # the last output is the verify report
    checks = [c for s in json.loads(out.read_text())["suites"] for c in s["checks"]]
    assert len(checks) == pins[bench.pin_key(bench.VERIFY_ARGS)]["items"] == 512
    assert all(c["status"] == "pass" for c in checks)


def test_gen_byte_determinism(cache, tmp_path):
    a = run_cli(["gen", "glag-k1", "--rmax2", "4", "--nmax", "6"], cache)
    b = run_cli(["gen", "glag-k1", "--rmax2", "4", "--nmax", "6"], cache)
    c = run_cli(["gen", "glag-k1", "--rmax2", "4", "--nmax", "6", "--no-cache"],
                cache)
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout == c.stdout
    assert a.stdout  # nonempty


def test_gen_json_schema(cache, capsys):
    assert main(["gen", "gauss", "--gmax", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "hzlag-table/1"
    assert payload["ensemble"] == "gauss"
    assert payload["bounds"] == {"gmax": 4}
    by_key = {(e["g"], e["k"]): e["value"] for e in payload["entries"]}
    assert by_key[(2, 0)] == "21"
    assert by_key[(2, 1)] == "105"


def test_gen_usage_errors(cache):
    assert main(["gen", "gauss", "--gmax", "0"]) == 2
    assert main(["gen", "laguerre", "--gmax", "3"]) == 2  # missing --nmax
    assert main(["gen", "laguerre", "--gmax", "-1", "--nmax", "2"]) == 2
    assert main(["gen", "laguerre", "--gmax", "100000", "--nmax", "2"]) == 2


def test_gen_out_file(cache, tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["gen", "vk", "--gmax", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == GOLDEN.read_text()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_gen_out_refuses_the_cache_entry_it_serves(cache, capsys, fmt):
    # opening --out for writing would empty the entry before it is read:
    # a warm gen (the entry exists) and a cold one (the entry is renamed
    # into place at --out) both fail with one error line, and the entry
    # keeps its bytes
    gen = ["gen", "vk", "--gmax", "2", "--format", fmt]
    path = cache_path({"ensemble": "vk", "gmax": 2})
    entry = _with_digest(GOLDEN.read_bytes())
    err = f"error: --out {path} is the cache entry the table is read from\n"
    for warm in (True, False):
        if warm:
            assert main(["gen", "vk", "--gmax", "2"]) == 0
        else:
            path.unlink()
        capsys.readouterr()
        assert main([*gen, "--out", str(path)]) == 2
        assert capsys.readouterr() == ("", err)
        assert path.read_bytes() == entry
    assert main(gen) == 0  # the entry is served as before
    assert capsys.readouterr().err == ""


def test_oracle_outputs(cache, capsys):
    assert main(["oracle", "--mu", "4"]) == 0
    assert main(["oracle", "--mu", "1,1,1", "--connected"]) == 0
    assert main(["oracle", "--mu", "3", "--rows", "N", "--cols", "N+1"]) == 0
    # eight traces: no trace-count cap, only the degree limit
    assert main(["oracle", "--mu", "1,1,1,1,1,1,1,2", "--connected", "--cols", "N+1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "14*N + 10*N^-1",
        "2*N^-1",
        "5*N + 10 + 7*N^-1 + 2*N^-2",
        "80640*N^-6 + 120960*N^-7 + 40320*N^-8",
    ]


def test_oracle_bad_mu(cache):
    assert main(["oracle", "--mu", "x"]) == 2


@pytest.mark.parametrize("flag,value", [
    ("mu", "1_0"), ("mu", "\u0663"), ("mu", "2,\u0661"), ("mu", "+4"), ("mu", " 4"),
    ("rows", "N+\u0663"), ("cols", "N-\u0661\u0662"), ("rows", "N+1_0"),
], ids=["underscore", "arabic-indic", "arabic-indic-part", "plus", "space", "rows-arabic-indic",
        "cols-arabic-indic", "rows-underscore"])
def test_oracle_reads_only_ascii_digits(cache, capsys, flag, value):
    # int() reads "1_0" as 10 and the digits of other scripts as digits
    argv = ["oracle", "--mu", value] if flag == "mu" else ["oracle", "--mu", "2", f"--{flag}", value]
    assert main(argv) == 2
    hint = "" if flag == "mu" else " (expected N, N+k or N-k)"
    assert capsys.readouterr() == ("", f"error: bad --{flag} {value!r}{hint}\n")


def test_series_vk_json(cache, capsys):
    assert main(["series", "vk", "--k", "1", "--order", "5"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0] == {"exponent": 0, "value": "1"}
    assert rows[1] == {"exponent": -1, "value": "-6"}
    assert main(["series", "skb", "--k", "3", "--beta", "1", "--order", "40"]) == 0
    assert capsys.readouterr().out == SKB_GOLDEN.read_text()


# series output where the truncation order is at or just past the leading
# term (s_{3,1} starts at x^-8, s_{3,0} at x^-9), as {exponent: value}
SERIES_EDGES = [
    (["skb", "--k", "3", "--beta", "1", "--order", "7"], {-7: "0"}),
    (["skb", "--k", "3", "--beta", "1", "--order", "8"], {-8: "1"}),
    (["skb", "--k", "3", "--beta", "1", "--order", "9"], {-8: "1", -9: "16"}),
    (["skb", "--k", "3", "--beta", "0", "--order", "8"], {-8: "0"}),
    (["skb", "--k", "3", "--beta", "0", "--order", "9"], {-9: "1"}),
    (["skb", "--k", "3", "--beta", "0", "--order", "10"], {-9: "1", -10: "18"}),
    (["vk", "--k", "0", "--order", "0"], {0: "1"}),
]


@pytest.mark.parametrize("argv,want", SERIES_EDGES)
def test_series_truncation_edges(cache, capsys, argv, want):
    assert main(["series", *argv]) == 0
    out = capsys.readouterr().out
    items = [{"exponent": e, "value": v} for e, v in want.items()]
    assert out == json.dumps(items, indent=2) + "\n"


def test_eval_fab(cache, capsys):
    assert main(["eval-fab", "--a", "2", "--b", "2", "--at", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert main(["eval-fab", "--a", "2", "--b", "2", "--at", "1"]) == 2  # pole


def test_eval_fab_matches_golden(cache, capsys):
    golden = json.loads(EVAL_FAB_GOLDEN.read_text())
    assert len(golden) == 13 * 13
    for key, (bare, at_half) in golden.items():
        a, b = key.split(",")
        assert main(["eval-fab", "--a", a, "--b", b]) == 0
        assert main(["eval-fab", "--a", a, "--b", b, "--at", "1/2"]) == 0
        assert capsys.readouterr().out == bare + at_half, key
    assert golden["3,2"][0] == (
        "(-2*u^4 + 2*u^3 - 3*u^2) / (u^4 - 4*u^3 + 6*u^2 - 4*u + 1)\n")


def test_commands_build_laurent_polynomials_over_int_only(cache, monkeypatch, capsys):
    # hzlag.exact's ring takes the coefficients it is given as they are:
    # every one the commands give it must be an int, memos cleared so that
    # every polynomial is built afresh
    for memo in (residues.fab, wick.gue_moment, wick._wishart_moment):
        memo.cache_clear()
    seen = []
    init = exact.Laurent.__init__

    def recording_init(self, terms=None):
        seen.extend(c for c in (terms or {}).values() if type(c) is not int)
        init(self, terms)

    monkeypatch.setattr(exact.Laurent, "__init__", recording_init)
    for argv in (["verify", "--suite", "all", "--no-cache"],
                 ["oracle", "--mu", "1,1,2,3", "--connected", "--cols", "N+1"],
                 ["oracle", "--mu", "3,3", "--connected", "--rows", "N-7", "--cols", "N+5"],
                 ["eval-fab", "--a", "40", "--b", "37", "--at=-7/3"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert seen == []


@pytest.mark.parametrize("argv", [
    ["oracle", "--mu", "0"],
    ["oracle", "--mu", str(WISHART_DEGREE_LIMIT + 1)],
    ["oracle", "--mu", "2", "--rows", "M"],
    ["oracle", "--mu", "2", "--cols", "N+x"],
    ["eval-fab", "--a", "-1", "--b", "1"],
    ["eval-fab", "--a", "1", "--b", "1", "--at", "x"],
    ["eval-fab", "--a", "1", "--b", "1", "--at", "1/0"],
    ["series", "skb", "--k", "1", "--beta", "0", "--order", "-2"],
    ["series", "vk", "--k", "-1", "--order", "2"],
    ["verify", "--gmax", "-1"],
    ["verify", "--suite", "crosscheck", "--mmax", "-1"],
    ["verify", "--suite", "constraints", "--gmax", "0"],
    ["verify", "--suite", "odes", "--nmax", "0"],
    # over a declared limit: refused before any work starts (none of these
    # would finish if it were attempted)
    ["eval-fab", "--a", "1000000000", "--b", "1"],
    ["eval-fab", "--a", "1", "--b", "1000000000", "--at", "1/2"],
    ["series", "vk", "--k", "1000000000", "--order", "2"],
    ["series", "skb", "--k", "1", "--beta", "1", "--order", "1000000000"],
    ["verify", "--suite", "identities", "--amax", "1000000000"],
    ["verify", "--suite", "identities", "--bmax", "51"],
    ["verify", "--suite", "odes", "--nmax", "51"],
    ["gen", "vk", "--gmax", str(ENSEMBLES["vk"].bounds["gmax"] + 1)],
    ["gen", "gauss", "--gmax", str(ENSEMBLES["gauss"].bounds["gmax"] + 1)],
    ["gen", "glag-k1", "--rmax2", str(ENSEMBLES["glag-k1"].bounds["rmax2"] + 1), "--nmax", "1"],
    ["gen", "glag-k1", "--rmax2", "1", "--nmax", str(ENSEMBLES["glag-k1"].bounds["nmax"] + 1)],
    # over the widest window the suite has: a larger value would change nothing
    ["verify", "--suite", "crosscheck", "--mmax", "7"],
    ["verify", "--suite", "constraints", "--gmax", "9"],
    # --at is an ASCII integer p or fraction p/q with q > 0, nothing else
    ["eval-fab", "--a", "1", "--b", "1", "--at", "1/000"],
    ["eval-fab", "--a", "2", "--b", "2", "--at", " 1_0/3 "],
    ["eval-fab", "--a", "2", "--b", "2", "--at", "1_0/3"],
    ["eval-fab", "--a", "2", "--b", "2", "--at", "1/2 "],
    ["eval-fab", "--a", "2", "--b", "2", "--at", "1e10000000"],
    ["eval-fab", "--a", "2", "--b", "2", "--at", "0.5"],
    ["eval-fab", "--a", "2", "--b", "2", "--at", "+1/2"],
    ["eval-fab", "--a", "2", "--b", "2", "--at", "1/-2"],
    ["eval-fab", "--a", "2", "--b", "2", "--at", "1//2"],
    ["eval-fab", "--a", "2", "--b", "2", "--at", "/2"],
    ["eval-fab", "--a", "2", "--b", "2", "--at", "\u0661/2"],  # ARABIC-INDIC ONE
    ["eval-fab", "--a", "2", "--b", "2", "--at", ""],
    # p or q over the digit limit: refused before f_{A,B} is built
    ["eval-fab", "--a", "300", "--b", "300",
     "--at", "1" * (cli.GEN_LIMITS["at_digits"] + 1)],
    ["eval-fab", "--a", "300", "--b", "300",
     "--at", "1/" + "3" * (cli.GEN_LIMITS["at_digits"] + 1)],
    ["eval-fab", "--a", "300", "--b", "300",
     "--at=-" + "7" * (cli.GEN_LIMITS["at_digits"] + 1) + "/3"],
    # within the laguerre option bounds, but over tables.GEN_BYTES: refused
    # before the table is built (200/432 is accepted)
    ["gen", "laguerre", "--gmax", "1000", "--nmax", "2000"],
    ["gen", "laguerre", "--gmax", "200", "--nmax", "433", "--format", "csv"],
    # an --out that cannot be opened for writing: a file in a missing
    # directory, a directory, or the empty name
    *[[*argv, "--out", out] for out in (OUT_IN_MISSING_DIR, OUT_DIR, "") for argv in (
        ["gen", *VK1], ["gen", *VK1, "--no-cache"], ["gen", *VK1, "--format", "csv"],
        ["verify", "--suite", "odes", "--nmax", "1"],
        ["series", "vk", "--k", "1", "--order", "2"])],
    # an oracle dimension shift k over the digit limit: refused before it is
    # parsed (--mu 12,12 with 2,000-digit shifts took 13 s)
    ["oracle", "--mu", "12,12", "--rows", "N+" + "9" * (cli.GEN_LIMITS["at_digits"] + 1)],
    ["oracle", "--mu", "1", "--cols", "N - 0" + "1" * cli.GEN_LIMITS["at_digits"]],
    # a bound or option the ensemble or series does not have
    ["gen", "gauss", "--gmax", "2", "--nmax", "5"],
    ["gen", "vk", "--gmax", "1", "--rmax2", "4"],
    ["gen", "laguerre", "--gmax", "1", "--nmax", "1", "--rmax2", "3"],
    ["gen", "glag-k1", "--rmax2", "1", "--nmax", "1", "--gmax", "2"],
    ["series", "vk", "--k", "1", "--order", "2", "--beta", "1"],
])
def test_bad_input_exits_2(cache, capsys, argv):
    where = {OUT_IN_MISSING_DIR: str(cache.parent / "missing" / "x"), OUT_DIR: str(cache.parent)}
    argv = [where.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if "--out" in argv:
        assert err.startswith(f"error: cannot write --out {argv[-1]} ("), err
    assert not (cache.parent / "missing").exists()


def test_laguerre_size_estimate(cache, capsys):
    # within 6% of the bytes gen writes, and 200/432 is the largest table
    # gen laguerre writes at gmax 200
    for bounds in ({"gmax": 20, "nmax": 40}, {"gmax": 800, "nmax": 1}, {"gmax": 60, "nmax": 2}):
        with tables.table_bytes("laguerre", bounds, False) as f:
            size = len(f.read())
        assert abs(tables._laguerre_json_bytes(*bounds.values()) - size) < 0.06 * size, bounds
    estimate = tables._laguerre_json_bytes
    assert estimate(200, 432) <= tables.GEN_BYTES < estimate(200, 433)
    assert tables._laguerre_json_bytes(150, 300) <= tables.GEN_BYTES


def test_limits_are_inclusive(cache, capsys):
    assert main(["eval-fab", "--a", "300", "--b", "0"]) == 0
    assert main(["eval-fab", "--a", "0", "--b", "300", "--at", "1/2"]) == 0
    assert capsys.readouterr().out == "0\n-300\n"
    digits = cli.GEN_LIMITS["at_digits"]
    assert main(["eval-fab", "--a", "1", "--b", "1",
                 f"--at=-{'9' * digits}/{'1' * digits}"]) == 0
    # f_{1,1}(u) = -u/(u - 1)
    point = Fraction(-int("9" * digits), int("1" * digits))
    assert capsys.readouterr().out == f"{-point / (point - 1)}\n"
    k = "9" * digits
    assert main(["oracle", "--mu", "1", "--rows", f"N+{k}", "--cols", f"N-{k}"]) == 0
    assert capsys.readouterr().out == f"N - {int(k) ** 2}*N^-1\n"  # (N+k)(N-k)/N
    assert main(["series", "vk", "--k", "64", "--order", "3"]) == 0
    assert main(["verify", "--suite", "identities",
                 "--amax", "50", "--bmax", "0", "--nmax", "0"]) == 0
    assert main(["verify", "--suite", "identities",
                 "--amax", "0", "--bmax", "50", "--nmax", "0"]) == 0
    assert main(["verify", "--suite", "odes", "--nmax", "50"]) == 0
    assert main(["verify", "--suite", "crosscheck", "--mmax", "6"]) == 0
    assert main(["verify", "--suite", "constraints", "--gmax", "8"]) == 0


def test_verify_empty_suite_exits_2(cache, capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "odes", "--nmax", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: suite odes runs no checks at --nmax 0\n"
    assert captured.out == ""
    assert not out.exists()


# the error of each suite that runs no checks at the CLI defaults: it names
# the options that set the suite's window
EMPTY_SUITE_ERRORS = {
    "identities": "error: suite identities runs no checks at --amax 10 --bmax 10 --nmax 10\n",
    "odes": "error: suite odes runs no checks at --nmax 10\n",
    "crosscheck": "error: suite crosscheck runs no checks at --mmax 6\n",
    "constraints": "error: suite constraints runs no checks at --gmax 6\n",
}


@pytest.mark.parametrize("flag,default,cap,suites", [
    ("amax", 10, 50, ("identities",)),
    ("bmax", 10, 50, ("identities",)),
    ("nmax", 10, 50, ("identities", "odes")),
    ("gmax", 6, 8, ("constraints",)),
    ("mmax", 6, 6, ("crosscheck",)),
])
def test_verify_window_options(cache, capsys, monkeypatch, flag, default, cap, suites):
    assert list(cli.VERIFY_WINDOWS) == ["amax", "bmax", "nmax", "gmax", "mmax"]
    assert cli.VERIFY_WINDOWS[flag][:3] == (default, 0, cap)
    assert cli.VERIFY_WINDOWS[flag][4] == suites
    # the range check alone decides: each suite is a stub with one passing check
    ran = []
    for name in cli.SUITES:
        monkeypatch.setattr(verify, cli.SUITES[name], lambda args, name=name: ran.append(name) or [
            verify.CheckRecord(f"stub[{name}]", "stub", "pass")])
    assert main(["verify", f"--{flag}", str(cap)]) == 0
    assert ran == list(cli.SUITES)
    capsys.readouterr()
    for bad in (cap + 1, -1):
        assert main(["verify", f"--{flag}", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: --{flag} must be in 0..{cap}, got {bad}\n"
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps at the terminal width
    shown = text[text.index(f"--{flag} {flag.upper()} "):]
    shown = shown[:shown.index(" --", 2)]  # up to the next option
    assert shown.endswith(f", 0 to {cap} (default {default})"), shown
    # a suite that runs no checks names its window options
    for name in suites:
        monkeypatch.setattr(verify, cli.SUITES[name], lambda args: [])
        assert main(["verify", "--suite", name]) == 2
        assert capsys.readouterr().err == EMPTY_SUITE_ERRORS[name]


def test_table_reading_suites_run_at_every_window_value(cache, capsys):
    # the suites index the rows of their tables directly, so a read outside a
    # table would be a KeyError (exit 3): every value of their window options
    # stays within the tables they load
    for suite, flag, values in (("crosscheck", "mmax", range(7)),
                                ("constraints", "gmax", range(1, 9))):
        for v in values:
            rc = main(["verify", "--suite", suite, "--no-cache", f"--{flag}", str(v)])
            out, err = capsys.readouterr()
            assert (rc, err) == (0, ""), (flag, v, err)
            assert re.fullmatch(rf"suite {suite}: \d+ checks, 0 failures\n", out), (flag, v, out)
    assert not cache.exists()


def test_verify_constraints_follows_gmax(cache, tmp_path, capsys):
    # the vk table of the constraints suite follows --gmax to its cap
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "constraints", "--gmax", "8", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "suite constraints: 210 checks, 0 failures\n"
    ids = {c["id"] for c in json.loads(out.read_text())["suites"][0]["checks"]}
    assert {"consistency[g=8]", "asym-r[g=8,r=17]"} <= ids
    # at --gmax 6 (the default) the report keeps the bytes it had while vk
    # stopped at genus 6
    assert main(["verify", "--suite", "constraints", "--gmax", "6", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "279174c3a66608e098d050dfafb5a01d6a5e7ee3279dcbc7e1e45a824b2cf262")


def test_verify_out_fails_before_any_suite_runs(cache, tmp_path, capsys, monkeypatch):
    ran = []
    bad = tmp_path / "missing" / "r.json"
    with monkeypatch.context() as m:
        m.setattr(verify, cli.SUITES["odes"], lambda args: ran.append(args))
        for suite in ("odes", "all"):
            assert main(["verify", "--suite", suite, "--out", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write --out {bad} (") and err.count("\n") == 1
    assert ran == []
    assert not bad.parent.exists()
    # a writable --out is left as it was when the run then exits 2
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    assert main(["verify", "--suite", "odes", "--nmax", "0", "--out", str(kept)]) == 2
    assert kept.read_text() == "earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.json"]


@pytest.mark.parametrize("extra", [[], ["--no-cache"], ["--format", "csv"]],
                         ids=["json", "no-cache", "csv"])
def test_gen_out_fails_before_the_engine_runs(cache, tmp_path, capsys, monkeypatch, extra):
    ran = []
    monkeypatch.setattr(engines, "do_norbury_items", lambda *a, **k: ran.append(a) or iter(()))
    temporaries = []  # the files --no-cache would compute into
    true_temporary = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile",
                        lambda: temporaries.append(true_temporary()) or temporaries[-1])
    gen = ["gen", *LAGUERRE_5_20, *extra]
    for bad in (tmp_path / "missing" / "t.json", tmp_path):
        assert main([*gen, "--out", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith(f"error: cannot write --out {bad} (") and err.count("\n") == 1, err
    assert ran == [] and temporaries == []
    assert not cache.exists()  # neither an entry nor a temporary file
    # a writable --out is left as it was when the engine then fails
    monkeypatch.setattr(engines, "do_norbury_items", lambda *a, **k: iter([(0, 0, [1 / 0])]))
    kept = tmp_path / "kept.json"
    kept.write_text("earlier table\n")
    assert main([*gen, "--out", str(kept)]) == 3
    assert capsys.readouterr().err == "internal error: ZeroDivisionError: division by zero\n"
    assert kept.read_text() == "earlier table\n"
    assert sorted(p.name for p in tmp_path.iterdir() if p != cache) == ["kept.json"]
    assert not cache.exists() or list(cache.iterdir()) == []


def test_verify_odes_suite(cache, capsys):
    # DN, K1, K2 and T-1 at k = 0, 1, 2 for each N up to --nmax (10 by default)
    for flags, nmax in (([], 10), (["--nmax", "4"], 4), (["--nmax", "50"], 50)):
        assert main(["verify", "--suite", "odes", *flags]) == 0
        assert capsys.readouterr().out == f"suite odes: {6 * nmax} checks, 0 failures\n"


def test_suites_emit_exactly_the_registered_tags():
    # the identities and odes suites run each registered check and no other
    args = argparse.Namespace(amax=1, bmax=1, nmax=1)
    assert {c.anchor for c in verify.suite_identities(args)} == {*AB_IDENTITIES, *N_IDENTITIES}
    assert {c.anchor for c in verify.suite_odes(args)} == {*ODES, "T-1"}


def test_verify_report_out(cache, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "crosscheck", "--out", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    assert rep["schema"] == "hzlag-report/1"
    suite = rep["suites"][0]
    assert suite["suite"] == "crosscheck"
    assert all(c["status"] == "pass" for c in suite["checks"])
    # reports must be byte-deterministic: no timing or environment fields
    assert set(rep) == {"schema", "tool_version", "suites"}
    assert set(suite) == {"suite", "tool_version", "passed", "checks"}


def test_verify_constraints_cache_round_trip(cache, capsys):
    assert main(["verify", "--suite", "constraints"]) == 0
    first = capsys.readouterr().out
    assert cache.exists() and any(cache.iterdir())
    assert main(["verify", "--suite", "constraints"]) == 0
    assert capsys.readouterr().out == first
    assert main(["verify", "--suite", "constraints", "--no-cache"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("use_cache", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("ensemble,bounds", [
    ("laguerre", {"gmax": 3, "nmax": 10}),
    ("gauss", {"gmax": 6}),
    ("vk", {"gmax": 4}),
    # rmax2 != nmax, and the header lists the bounds sorted, nmax first
    ("glag-k1", {"rmax2": 5, "nmax": 8}),
], ids=["laguerre", "gauss", "vk", "glag-k1"])
def test_load_table_equals_the_builders_table(cache, ensemble, bounds, use_cache):
    # the table is built by the ensemble's engine: its rows are the rows
    # read back, a Decimal value equal to the int read
    want = {i: dict(enumerate(values, j0))
            for i, j0, values in ENSEMBLES[ensemble].items(*bounds.values())}
    assert tables.load_table(ensemble, bounds, use_cache) == want
    assert tables.load_table(ensemble, bounds, use_cache) == want  # a hit, when cached
    assert any(cache.iterdir()) if use_cache else not cache.exists()


def test_verify_detects_cache_corruption(cache, capsys):
    verify = ["verify", "--suite", "constraints"]
    assert main(verify) == 0
    capsys.readouterr()
    poisoned = []
    for f in cache.iterdir():
        digest, body = f.read_bytes().split(b"\n", 1)
        payload = json.loads(body)
        if payload["ensemble"] == "laguerre":
            # a wrong table under its own digest, as an engine bug would write it
            payload["entries"][5]["value"] = "99999"
            wrong = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
            f.write_bytes(_with_digest(wrong))
            poisoned.append((f, digest, wrong))
    assert poisoned
    assert main(verify) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    # the same bytes under the digest of the right ones are named corrupt
    for f, digest, wrong in poisoned:
        f.write_bytes(digest + b"\n" + wrong)
    _assert_named_corrupt(poisoned[0][0], (verify,), capsys)
    # bypassing the poisoned cache must pass again
    assert main([*verify, "--no-cache"]) == 0


def _cache_wrong_table(ensemble: str, bounds: dict, values: dict):
    """Cache the gen JSON of one table with the value texts {(i, j): text}
    in place of the right ones, under its own digest, as an engine bug
    would write it; return the entry's path."""
    buf = io.BytesIO()
    payload_to_json(table_payload(ensemble, bounds), buf)
    payload = json.loads(buf.getvalue())
    i, j = ENSEMBLES[ensemble].keys
    assert values.keys() <= {(entry[i], entry[j]) for entry in payload["entries"]}
    for entry in payload["entries"]:
        entry["value"] = values.get((entry[i], entry[j]), entry["value"])
    path = cache_path({"ensemble": ensemble, **bounds})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(_with_digest((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()))
    return path


def _failures(argv: list[str], capsys) -> dict:
    """{id: detail} of the checks that fail in ``hzlag verify ARGV``, which
    must exit 1."""
    assert main(["verify", *argv]) == 1
    lines = capsys.readouterr().out.splitlines()
    fails = [line.split(" ", 5)[3:] for line in lines if line.startswith("  FAIL ")]
    return {check_id: detail for check_id, _, detail in fails}


def test_crosscheck_reads_its_3t_table_through_the_cache(cache, capsys):
    # C_2^(1) = 10, read at m = 4
    _cache_wrong_table("laguerre", {"gmax": 3, "nmax": 6}, {(1, 2): "11"})
    assert _failures(["--suite", "crosscheck"], capsys) == {
        "3-t-wick[m=4]": "g=1: table 11 wick 10",
        "gamma-collapse[m=4]": "sum 25 m! 24",
    }


@pytest.mark.parametrize("owner,name,wrap,want", [
    # E tr W^3 at N = 2 one too large on the residue route
    (residues, "exp_mean_moments",
     lambda f: lambda N, mmax: [v + (N == 2 and m == 3) for m, v in enumerate(f(N, mmax))],
     {"rep-N-wick[N=2,m=3]": "residue 85 wick 84"}),
    # two coefficients of N = 3 one too large: the detail names the first,
    # times m1! m2!
    (residues, "two_point_series",
     lambda f: lambda N, order: {k: v + (N == 3 and k in {(1, 2), (2, 2)})
                                 for k, v in f(N, order).items()},
     {"W2-wick[N=3]": "m1=1,m2=2: residue 110 wick 108"}),
    # W30 compares the oracle's coefficient with twice the basis product's,
    # in integers: a zero basis coefficient fails the check, and divides nothing
    (recursions, "w30_basis_coefficient",
     lambda f: lambda *t: f(*t) * (3 if t == (2, 1, 1) else 1),
     {"W30[constant-ratio]": "m=(2, 1, 1): oracle 12 2*basis 36"}),
    (recursions, "w30_basis_coefficient",
     lambda f: lambda *t: f(*t) * (t != (2, 1, 1)),
     {"W30[constant-ratio]": "m=(2, 1, 1): oracle 12 2*basis 0"}),
], ids=["rep-N-wick", "W2-wick", "W30", "W30-zero-basis"])
def test_crosscheck_names_the_first_differing_cell(cache, capsys, monkeypatch, owner, name, wrap,
                                                   want):
    # the suite imports the route functions when it runs, so it sees the patch
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    assert _failures(["--suite", "crosscheck"], capsys) == want


def test_crosscheck_reads_its_gauss_and_glag_tables_through_the_cache(cache, capsys):
    # b_1^(2) = 105 of "recurrence", read from m = 10 on, and C_1^(1) = 7 of
    # "8-t" (row q = 2), read at m = 3
    _cache_wrong_table("gauss", {"gmax": 3}, {(2, 1): "147"})
    _cache_wrong_table("glag-k1", {"rmax2": 5, "nmax": 8}, {(2, 1): "11"})
    assert _failures(["--suite", "crosscheck"], capsys) == {
        "recurrence-gue[g=2]": "m=10: table 525 oracle 483",
        "8-t-wick[m=3]": "table 5*N + 10 + 11*N^-1 + 2*N^-2 wick 5*N + 10 + 7*N^-1 + 2*N^-2",
    }


def test_cached_a_row_that_does_not_cancel_fails_its_checks(cache, capsys):
    # a_{-3}^(1) = 1/256 as 7/8 adds 223/256 to the constant term of the g = 1
    # row's expansion: a-to-C (constraints) and W11 (crosscheck, from the vk
    # table of gmax 1) fail at x^-0, and each asym-r moment r of the row
    # moves by 223/256 (-3)^r
    _cache_wrong_table("vk", {"gmax": 6}, {(1, -3): "7/8"})
    assert _failures(["--suite", "constraints"], capsys) == {
        "a-to-C[g=1]": "x^-0: a-row 223/256 table 0",
        **{f"asym-r[g=1,r={r}]": f"moment {Fraction(223, 256) * (-3) ** r} expected 0"
           for r in range(4)},
    }
    _cache_wrong_table("vk", {"gmax": 1}, {(1, -3): "7/8"})
    assert _failures(["--suite", "crosscheck"], capsys) == {
        "W11[arow-vs-closed]": "x^-0: a-row 223/256 closed 0"}


# one wrong value in each kind of comparison: (verify arguments, owner and
# name of the value function the suite imports, a module and a function's
# name or a residue registry and a tag, a wrapper making one value wrong,
# {id: detail} of the one failing check)
_WRONG_VALUES = {
    "identities": (
        ["--suite", "identities", "--amax", "2", "--bmax", "2", "--nmax", "2"],
        residues.AB_IDENTITIES, "fAB-quad",
        lambda entry: (entry[0], lambda A, B: [
            (suffix, r + WLaurent({-1: 1}) if (A, B) == (2, 1) else r)
            for suffix, r in entry[1](A, B)]),
        {"fAB-quad[A=2,B=1]": "residual (1) / (u - 1) expected 0"}),
    "odes": (
        ["--suite", "odes", "--nmax", "2"], residues.ODES, "K1",
        lambda f: lambda N: f(N) + 3 * (N == 2),
        {"ode-K1[N=2]": "residual 3 expected 0"}),
    "T-1": (
        ["--suite", "odes", "--nmax", "2"], residues, "t1_residual",
        lambda f: lambda N, k: f(N, k) - WLaurent({1: 2}) * ((N, k) == (1, 2)),
        {"T-1[N=1,k=2]": "residual -2*u + 2 expected 0"}),
    "a-to-C": (
        ["--suite", "constraints"], recursions, "a_row_series",
        lambda f: lambda row, g, order: [v + (g == 2 and e == 9)
                                         for e, v in enumerate(f(row, g, order))],
        {"a-to-C[g=2]": "x^-9: a-row 20791 table 20790"}),
    "int-2": (
        ["--suite", "constraints"], recursions, "int2_residuals",
        lambda f: lambda rows: {**f(rows), (1, 3): 5},
        {"int-2[g=1,n=3]": "residual 5 expected 0"}),
    "W1": (
        ["--suite", "constraints"], recursions, "w1_slots",
        lambda f: lambda rows: {**f(rows), (-1, 1): (3, 2)},
        {"W1[q=-1,e=1]": "collected 3 expected 2"}),
    "consistency": (
        ["--suite", "constraints"], engines, "consistency_form",
        lambda f: lambda row: f(row) + (min(row) == -6),
        {"consistency[g=2]": "form 1 expected 0"}),
    "W11": (
        ["--suite", "crosscheck"], recursions, "a_row_series",
        lambda f: lambda row, g, order: [v + (e == 5) for e, v in enumerate(f(row, g, order))],
        {"W11[arow-vs-closed]": "x^-5: a-row 11 closed 10"}),
}


@pytest.mark.parametrize("kind", _WRONG_VALUES)
def test_every_suite_names_the_first_differing_cell(cache, capsys, monkeypatch, kind):
    # the suites hand their comparisons to verify.judge; a wrong value from the
    # function a suite imports fails exactly its own check, with the loop's
    # detail.  The cache is filled first: the vk engine calls
    # consistency_form too.
    argv, owner, name, wrap, want = _WRONG_VALUES[kind]
    assert main(["verify", *argv]) == 0
    capsys.readouterr()
    if isinstance(owner, dict):  # a registry of hzlag.residues
        monkeypatch.setitem(owner, name, wrap(owner[name]))
    else:
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    assert _failures(argv, capsys) == want


@pytest.mark.parametrize("bad", ["abc", "1/0", "", "1/x"])
def test_cached_value_that_is_not_a_number_is_named_corrupt(cache, capsys, bad):
    # under its own digest, so only reading the value can tell
    verify = ["verify", "--suite", "constraints"]
    path = _cache_wrong_table("laguerre", {"gmax": 5, "nmax": 20}, {(1, 2): bad})
    _assert_named_corrupt(path, (verify,), capsys)
    assert main([*verify, "--no-cache"]) == 0


# the cache entries a default `verify --suite all` reads: (the suite that
# reads it, ensemble, bounds)
VERIFY_ALL_ENTRIES = [
    ("crosscheck", "laguerre", {"gmax": 3, "nmax": 6}),
    ("crosscheck", "gauss", {"gmax": 3}),
    ("crosscheck", "glag-k1", {"rmax2": 5, "nmax": 8}),
    ("crosscheck", "vk", {"gmax": 1}),
    ("constraints", "vk", {"gmax": 6}),
    ("constraints", "laguerre", {"gmax": 5, "nmax": 20}),
    ("constraints", "laguerre", {"gmax": 3, "nmax": 10}),
    ("constraints", "glag-k1", {"rmax2": 4, "nmax": 8}),
    ("constraints", "gauss", {"gmax": 6}),
]

# mutations of an entry list e, keyed by i and j, at its middle entry m, that
# leave a key missing, repeated or out of range
_SHAPE_MUTATIONS = {
    "drop-entry": lambda e, i, j, m: e[:m] + e[m + 1:],
    "drop-row": lambda e, i, j, m: [x for x in e if x[i] != e[m][i]],
    "duplicate-key": lambda e, i, j, m: e[:m + 1] + e[m:],
    "key-out-of-range": lambda e, i, j, m: [*e[:m], {**e[m], j: 1000}, *e[m + 1:]],
    "truncate": lambda e, i, j, m: e[:m],
}


def test_verify_all_reads_the_entries_of_the_mutation_matrix(cache, capsys):
    assert main(["verify"]) == 0
    assert set(cache.iterdir()) == {cache_path({"ensemble": ensemble, **bounds})
                                    for _, ensemble, bounds in VERIFY_ALL_ENTRIES}


@pytest.mark.parametrize("suite,ensemble,bounds", VERIFY_ALL_ENTRIES,
                         ids=[f"{s}-{e}-{'-'.join(map(str, b.values()))}"
                              for s, e, b in VERIFY_ALL_ENTRIES])
def test_mutated_cache_entry_fails_checks_or_is_named_corrupt(cache, capsys, suite, ensemble,
                                                             bounds):
    # each mutation is written under its own digest, so only reading the
    # entry can tell: a mis-shaped entry or an unparsable value is named as
    # corrupt (exit 2); a wrong number fails checks or goes unread (exit 1 or 0)
    verify = ["verify", "--suite", suite]
    assert main(verify) == 0
    capsys.readouterr()
    path = cache_path({"ensemble": ensemble, **bounds})
    payload = json.loads(path.read_bytes().split(b"\n", 1)[1])
    entries, (i, j) = payload["entries"], ENSEMBLES[ensemble].keys
    m = len(entries) // 2

    def run(mutated: list) -> tuple[int, str]:
        body = json.dumps({**payload, "entries": mutated}, sort_keys=True, indent=2) + "\n"
        path.write_bytes(_with_digest(body.encode()))
        rc = main(verify)
        err = capsys.readouterr().err
        assert rc != 3 and "internal error" not in err, err
        return rc, err

    def with_value(v: str) -> list:
        return [*entries[:m], {**entries[m], "value": v}, *entries[m + 1:]]

    named = f"error: corrupt cache entry {path}: "
    for how, mutate in _SHAPE_MUTATIONS.items():
        rc, err = run(mutate(entries, i, j, m))
        assert rc == 2 and err.startswith(named), (how, err)
    for bad in ("abc", "1/0", ""):
        rc, err = run(with_value(bad))
        assert rc == 2 and err.startswith(named), (bad, err)
    for wrong in {"0", "-1", "7/8"} - {entries[m]["value"]}:
        assert run(with_value(wrong))[0] in (0, 1), wrong


def _served(args: dict, compute, use_cache: bool = True) -> bytes:
    """The bytes cached_bytes serves for a gen entry keyed by args."""
    with cached_bytes(args, compute, use_cache) as f:
        return f.read()


def test_cache_write_is_atomic(cache, monkeypatch):
    calls = []
    payload = b"payload\n" + tables._ENDING  # an entry is served when it ends as gen JSON does

    def compute(f):
        calls.append(1)
        f.write(b"pay")
        f.write(payload[3:])

    def fail(src, dst):
        raise OSError("simulated failure")

    args = {"ensemble": "test"}
    with monkeypatch.context() as m:
        m.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            _served(args, compute)
    assert not cache_path(args).exists()
    assert list(cache.iterdir()) == []  # no temporary file is left behind
    assert _served(args, compute) == payload
    assert len(calls) == 2  # the failed write cached nothing
    assert cache_path(args).read_bytes() == _with_digest(payload)
    assert _served(args, compute) == payload
    assert len(calls) == 2
    assert _served(args, compute, False) == payload
    assert len(calls) == 3  # --no-cache computes into a temporary file
    assert [f.name for f in cache.iterdir()] == [cache_path(args).name]


def test_cache_write_that_fails_midway_leaves_nothing(cache):
    # a compute that raises after it has streamed part of the entry
    args = {"ensemble": "test"}
    calls = []

    def broken(f):
        calls.append(1)
        f.write(b'{\n  "bounds": ')
        raise RuntimeError("engine failure")

    for _ in range(2):  # the second call computes again
        with pytest.raises(RuntimeError):
            _served(args, broken)
        assert list(cache.iterdir()) == []
    assert len(calls) == 2
    assert _served(args, lambda f: f.write(b"payload")) == b"payload"
    assert cache_path(args).read_bytes() == _with_digest(b"payload")


def test_gen_streams_a_table_into_its_cache_entry(cache, monkeypatch, capsys):
    # gen writes the table into the entry in slices, and serves the entry
    monkeypatch.setattr(tables, "_SLICE", 3)
    assert main(["gen", "vk", "--gmax", "2"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
    path = cache_path({"ensemble": "vk", "gmax": 2})
    assert path.read_bytes() == _with_digest(GOLDEN.read_bytes())
    assert [f.name for f in cache.iterdir()] == [path.name]


@pytest.mark.parametrize("no_cache", [False, True], ids=["cached", "no-cache"])
def test_engine_error_in_a_late_row_serves_nothing(cache, tmp_path, capsys, monkeypatch,
                                                    no_cache):
    # slices of the early rows (13 entries: four slices of at most 4) are
    # written before row 8 fails its exact division; the error still comes
    # before any byte is served
    monkeypatch.setattr(tables, "_SLICE", 4)
    true_div = engines._exact_div

    def failing(num, den, anchor, i, j):
        if anchor == "3-t" and i == 8:
            raise IntegralityError(f"3-t entry ({i}, {j}) failed on purpose")
        return true_div(num, den, anchor, i, j)

    monkeypatch.setattr(engines, "_exact_div", failing)
    written = []  # the size of each write the JSON made before the error
    true_to_json = tables.payload_to_json

    class _Counted:
        def __init__(self, f):
            self.f = f

        def write(self, b: bytes) -> int:
            written.append(len(b))
            return self.f.write(b)

    monkeypatch.setattr(tables, "payload_to_json",
                        lambda payload, f: true_to_json(payload, _Counted(f)))
    temporaries = []  # the files --no-cache computes into
    true_temporary = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile",
                        lambda: temporaries.append(true_temporary()) or temporaries[-1])
    out = tmp_path / "t.out"
    gen = ["gen", "laguerre", "--gmax", "9", "--nmax", "12", *(["--no-cache"] if no_cache else [])]
    for argv in (gen, [*gen, "--out", str(out)], [*gen, "--format", "csv"],
                 [*gen, "--format", "csv", "--out", str(out)]):
        written.clear()
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "internal error: IntegralityError: 3-t entry (8, 1) failed on purpose\n"
        assert len(written) > 10 and sum(written) > 8 * 13 * 60, argv  # the header and rows 0..7
        assert not out.exists()
        assert list(cache.glob("*")) == []  # neither an entry nor a temporary file
    assert len(temporaries) == (4 if no_cache else 0)
    assert all(f.closed for f in temporaries)


@pytest.mark.parametrize("how", ["directory", "permission"])
def test_unreadable_cache_entry_exits_2(cache, tmp_path, capsys, monkeypatch, how):
    path = cache_path({"ensemble": "vk", "gmax": 1})
    path.mkdir(parents=True)  # a directory where the entry belongs
    if how == "permission":  # file modes do not stop a superuser, so the refusal is simulated
        def guarded_open(file, *args, **kwargs):
            if pathlib.Path(file) == path:
                raise PermissionError(13, "Permission denied", str(file))
            return open(file, *args, **kwargs)
        monkeypatch.setattr(tables, "open", guarded_open, raising=False)
    report = tmp_path / "report.json"
    out = tmp_path / "t.out"
    gen = ["gen", *VK1]
    for argv in (gen, [*gen, "--out", str(out)], [*gen, "--format", "csv"],
                 ["verify", "--suite", "constraints", "--gmax", "1", "--out", str(report)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        err = captured.err
        assert err.startswith(f"error: cannot use cache entry {path} "), err
        assert err.endswith("; pass --no-cache\n") and err.count("\n") == 1, err
    assert not out.exists() and not report.exists()
    assert main([*gen, "--no-cache"]) == 0
    assert capsys.readouterr().out
    assert path.is_dir() and not any(path.iterdir())


def test_unusable_cache_dir_exits_2(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for cache_dir, argv in ((blocker, ["gen", "vk", "--gmax", "1"]),
                            (blocker / "sub", ["verify", "--suite", "constraints"])):
        monkeypatch.setenv("HZLAG_CACHE_DIR", str(cache_dir))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot use cache directory {cache_dir} ")
        assert "--no-cache" in err and err.count("\n") == 1, err
        assert main([*argv, "--no-cache"]) == 0
        capsys.readouterr()
    assert blocker.read_text() == ""


def test_unknown_arguments_exit_2(cache):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_console_script_entry_point(cache):
    r = run_cli(["--version"], cache)
    assert r.returncode == 0
    assert b"0.1.0" in r.stdout
    r = run_cli(["gen", "vk"], cache)  # a usage error
    assert r.returncode == 2 and r.stderr == b"error: gen vk requires --gmax\n", r.stderr
    r = run_cli(["verify", "bogus"], cache)  # an argparse usage error
    assert r.returncode == 2 and r.stderr.startswith(b"usage: hzlag"), r.stderr


def test_console_script_and_module_run_the_same_entry():
    # [project.scripts] hzlag names the function that ``python -m hzlag.cli``
    # runs, and that function is not main, which leaves the collector alone
    scripts = re.search(r"\[project\.scripts\]\n(?:.*\n)*?hzlag = \"([^\"]+)\"",
                        (ROOT / "pyproject.toml").read_text())
    module, func = scripts[1].split(":")
    assert module == "hzlag.cli"
    tree = ast.parse((ROOT / "src" / "hzlag" / "cli.py").read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(block.body) == f"sys.exit({func}())"
    assert func != "main" and callable(getattr(cli, func))


def test_main_leaves_the_collector_alone(cache, capsys):
    frozen = gc.get_freeze_count()
    for argv in (["--version"], ["gen", "vk", "--gmax", "1"], ["gen", "vk"]):
        try:
            main(argv)
        except SystemExit:
            pass
        assert gc.get_freeze_count() == frozen, argv
    capsys.readouterr()


_FULL = pathlib.Path("/dev/full")
needs_full = pytest.mark.skipif(not _FULL.exists(), reason="no /dev/full")


@needs_full
@pytest.mark.parametrize("argv", [
    ["gen", *VK2],
    ["gen", *VK2, "--format", "csv"],
    ["gen", *VK2, "--no-cache"],
    ["verify", "--suite", "odes", "--nmax", "1"],
    ["series", "vk", "--k", "1", "--order", "3"],
], ids=["gen-json", "gen-csv", "gen-no-cache", "verify", "series"])
def test_out_on_a_full_device_exits_2(cache, capsys, argv):
    assert main([*argv, "--out", str(_FULL)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write --out {_FULL} (No space left on device)\n"
    assert captured.out == ""


@needs_full
@pytest.mark.parametrize("argv", [
    ["gen", *VK2],
    ["gen", *VK2, "--format", "csv"],
    ["verify", "--suite", "odes", "--nmax", "1"],
    ["series", "vk", "--k", "1", "--order", "3"],
    ["oracle", "--mu", "2"],
    ["eval-fab", "--a", "1", "--b", "1"],
], ids=["gen-json", "gen-csv", "verify", "series", "oracle", "eval-fab"])
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_stdout_on_a_full_device_exits_2(cache, argv, buffered):
    env = _child_env(cache)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open(_FULL, "wb") as full:
        r = subprocess.run([sys.executable, "-m", "hzlag.cli", *argv], stdout=full,
                           stderr=subprocess.PIPE, env=env)
    assert r.returncode == 2, r.stderr
    assert r.stderr == b"error: cannot write to stdout (No space left on device)\n"


def test_processes_import_only_what_they_run(cache):
    # a warm gen and --version load no engine and not decimal: only the cli
    # module and the table pipe; a cold gen adds the engines and decimal
    # alone, none of the suites, verifiers, oracles, arithmetic or check
    # records, and only vk loads fractions; no process loads dataclasses,
    # inspect or pkgutil
    never = {"dataclasses", "inspect", "pkgutil"}
    front = {"hzlag.cli", "hzlag.tables"}
    assert loaded_modules(["--version"], cache) == front
    for job in (["gen", "vk", "--gmax", "2"], ["gen", *LAGUERRE_5_20], ["gen", "gauss", "--gmax", "5"],
                ["gen", "glag-k1", "--rmax2", "3", "--nmax", "4"]):
        cold = loaded_modules(job, cache)
        assert cold - {"fractions"} == {*front, "hzlag.engines", "decimal"}, (job, cold)
        assert ("fractions" in cold) == (job[1] == "vk"), (job, cold)
        for fmt in ("json", "csv"):
            assert loaded_modules([*job, "--format", fmt], cache) == front, (job, fmt)
    checks = loaded_modules(["verify", "--suite", "constraints"], cache)
    assert {"hzlag.verify", "hzlag.recursions"} <= checks and not checks & never, checks
    # the Wick oracles and their arithmetic are for the crosscheck and
    # oracle commands alone
    series = loaded_modules(["series", "vk", "--k", "2", "--order", "5"], cache)
    for loaded in (checks, series):
        assert "hzlag.recursions" in loaded, loaded
        assert not loaded & {"hzlag.wick", "hzlag.exact"}, loaded
