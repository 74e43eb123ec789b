"""End-to-end tests of the command-line interface: determinism, exit codes,
serialization formats, and the table cache."""

import hashlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hzlag
from hzlag import cli, recursions
from hzlag.cli import (
    ENSEMBLES,
    cache_path,
    cached_bytes,
    main,
    payload_to_csv,
    payload_to_json,
    table_payload,
)
from hzlag.exact import rat_str_explicit
from hzlag.recursions import IntegralityError, c1_closed_form

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden" / "vk_gmax2.json"
# eval-fab stdout for 0 <= A, B <= 12: [bare, --at 1/2] per "A,B"
EVAL_FAB_GOLDEN = pathlib.Path(__file__).parent / "golden" / "eval_fab_ab12.json"
SKB_GOLDEN = pathlib.Path(__file__).parent / "golden" / "series_skb_k3_beta1_order40.json"
# gen JSON of the four integer engines, recorded when they still computed
# over Fraction, then their CSV, recorded when each CSV cell was still made
# by rat_str_explicit(Fraction(value))
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
    are passed, besides an empty `PATH`.
    """
    return subprocess.run([sys.executable, "-m", "hzlag.cli", *args],
                          capture_output=True, env=_child_env(cache_dir))


def _child_env(cache_dir) -> dict:
    src_root = pathlib.Path(hzlag.__file__).resolve().parent.parent
    return {"PATH": "", "PYTHONPATH": str(src_root), "HZLAG_CACHE_DIR": str(cache_dir)}


# runs cli.main(ARGV) and writes, as the last line of stderr, the hzlag
# submodules the process loaded
_LOADED = """
import sys
import hzlag.cli
try:
    rc = hzlag.cli.main(sys.argv[1:])
except SystemExit as e:
    rc = e.code
print(*sorted(m for m in sys.modules if m.startswith("hzlag.")), file=sys.stderr)
sys.exit(rc)
"""


def loaded_modules(args, cache_dir) -> set:
    """The hzlag submodules a fresh process loads to run ``hzlag ARGS``."""
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


@pytest.mark.parametrize("bad", ["abc", "2/4", "5/1", "007"])
def test_gen_csv_names_corrupt_cache_entry(cache, tmp_path, capsys, bad):
    argv = ["gen", "vk", "--gmax", "2", "--format", "csv"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    path = cache_path("gen", {"ensemble": "vk", "gmax": 2})
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
    path = cache_path("gen", {"ensemble": "vk", "gmax": 1})
    path.write_bytes(path.read_bytes()[:100])
    _assert_named_corrupt(path, (argv, [*argv, "--format", "csv"], verify), capsys)
    assert not report.exists()
    assert main([*argv, "--no-cache"]) == 0
    assert capsys.readouterr().out == want


VK1 = ["vk", "--gmax", "1"]
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
    path = cache_path("gen", {"ensemble": job[0], **bounds})
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
    path = cache_path("gen", {"ensemble": "vk", "gmax": 2})
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
    path = cache_path("gen", {"ensemble": "vk", "gmax": 1})
    path.write_bytes(edit(*path.read_bytes().split(b"\n", 1)))
    out = tmp_path / "t.out"
    _assert_named_corrupt(path, (argv, [*argv, "--out", str(out)], [*argv, "--format", "csv"],
                                 [*argv, "--format", "csv", "--out", str(out)], verify), capsys)
    assert not out.exists() and not report.exists()
    assert main([*argv, "--no-cache"]) == 0
    assert capsys.readouterr().out == want


def test_entry_of_the_previous_cache_format_is_recomputed(cache, capsys):
    # before the digest line, an entry was the JSON alone, under a key
    # without the format field; it is never read
    args = {"ensemble": "vk", "gmax": 2}
    key = json.dumps({"tool": hzlag.__version__, "kind": "gen", "args": args}, sort_keys=True)
    old = cache / f"gen-{hashlib.sha256(key.encode()).hexdigest()[:32]}.json"
    stale = GOLDEN.read_text().replace('"value": "-1/2"', '"value": "-3/2"', 1)
    assert stale != GOLDEN.read_text()
    cache.mkdir()
    old.write_text(stale)
    csv = ["gen", "vk", "--gmax", "2", "--format", "csv"]
    assert main([*csv, "--no-cache"]) == 0
    want = GOLDEN.read_text() + capsys.readouterr().out
    assert main(["gen", "vk", "--gmax", "2"]) == 0
    assert main(csv) == 0
    assert capsys.readouterr().out == want
    assert cache_path("gen", args) != old
    assert cache_path("gen", args).read_bytes() == _with_digest(GOLDEN.read_bytes())
    assert old.read_text() == stale


@pytest.mark.parametrize("piece", [1, 60, 300])
def test_csv_is_converted_piece_by_piece(cache, capsys, monkeypatch, piece):
    # 1: every piece is one byte; 60: the first piece ends inside the JSON
    # header; 300: a few entries each
    monkeypatch.setattr(cli, "_PIECE", piece)
    for argv, name in TABLE_GOLDENS[len(JSON_GOLDENS):]:
        header = (GOLDEN.parent / name.replace(".csv", ".json")).read_bytes()
        assert piece == 300 or header.index(b'"entries": [') + 14 > piece
        assert main(["gen", *argv]) == 0  # computed into the cache
        assert main(["gen", *argv]) == 0  # read back from it
        assert capsys.readouterr().out == (GOLDEN.parent / name).read_text() * 2, name


class _ReadLog:
    """A file that passes every call on to f and logs the size of each read."""

    def __init__(self, f, sizes: list):
        self.f, self.sizes = f, sizes

    def read(self, *size):
        self.sizes.append(size[0] if size else None)
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
    monkeypatch.setattr(cli, "open", lambda *a, **k: _ReadLog(open(*a, **k), sizes),
                        raising=False)
    monkeypatch.setattr(cli, "_CHUNK", 128)
    monkeypatch.setattr(cli, "_PIECE", 100)
    for argv, name in TABLE_GOLDENS:
        sizes.clear()
        assert main(["gen", *argv]) == 0
        golden = (GOLDEN.parent / name).read_text()
        assert capsys.readouterr().out == golden, name
        # the digest line, the JSON hashed 128 bytes at a time, then the JSON
        # served 128 (JSON) or 100 (CSV) bytes at a time; each pass ends at
        # an empty read
        size = len((GOLDEN.parent / name.replace(".csv", ".json")).read_bytes())
        serve = 100 if "csv" in argv else 128
        assert sizes == [65, *[128] * (-(-size // 128) + 1),
                         *[serve] * (-(-size // serve) + 1)], name


def test_cold_gen_serves_its_new_entry_without_reading_it_back(cache, capsys, monkeypatch):
    # a miss hashes the bytes as they are written and serves them through the
    # descriptor that wrote them: _read_entry opens no entry to read it back
    sizes = []
    monkeypatch.setattr(cli, "open", lambda *a, **k: _ReadLog(open(*a, **k), sizes),
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
        assert sizes[0] == 65, name


@pytest.mark.parametrize("edit", [
    pytest.param(lambda entry: entry[:-1] + b"?", id="wrong-last-byte"),
    pytest.param(lambda entry: entry[:-1], id="last-byte-missing"),
    pytest.param(lambda entry: entry[:65 + 3 * 128], id="cut-at-a-chunk-boundary"),
    pytest.param(lambda entry: entry[:30], id="cut-in-the-digest-line"),
])
def test_entry_of_several_chunks_that_fails_its_digest_writes_nothing(cache, tmp_path, capsys,
                                                                      monkeypatch, edit):
    monkeypatch.setattr(cli, "_CHUNK", 128)
    argv = ["gen", "vk", "--gmax", "8"]
    assert main(argv) == 0
    capsys.readouterr()
    path = cache_path("gen", {"ensemble": "vk", "gmax": 8})
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
    """The gen JSON of a payload whose entries are ``((a, b), value)``
    items, as json.dumps renders it with each entry's value as a string."""
    k1, k2 = ENSEMBLES[payload["ensemble"]].keys
    entries = [{k1: a, k2: b, "value": str(v)} for (a, b), v in payload["entries"]]
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


@pytest.mark.parametrize("block", [4096, 500, 1])
@pytest.mark.parametrize("ensemble,bounds", [
    ("laguerre", {"gmax": 4, "nmax": 12}),
    ("gauss", {"gmax": 8}),
    ("vk", {"gmax": 4}),
    ("glag-k1", {"rmax2": 6, "nmax": 10}),
])
def test_payload_to_json_matches_json_dumps(monkeypatch, ensemble, bounds, block):
    # 4096 bytes: gauss and vk in one block, laguerre and glag-k1 in two; 500:
    # a few entries per block; 1: one entry per block
    monkeypatch.setattr(cli, "_BLOCK", block)
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
    # the header, one block of entries per write, then the footer
    head, *blocks, foot = sink.writes
    assert head.endswith(b'"entries": [\n') and foot.startswith(b"\n  ]")
    assert b'"value": ' not in head + foot
    assert sum(b.count(b'"value": ') for b in blocks) == len(payload["entries"])
    # a block ends at the first entry that brings it to `block` bytes: every
    # block but the last reaches it, and none does before its last entry
    # (the ",\n" before an entry counts as the entry's)
    for i, b in enumerate(blocks):
        assert b.startswith(b",\n    {" if i else b"    {") and b.endswith(b"\n    }")
        assert max(b.rfind(b",\n    {"), 0) < block
        assert len(b) >= block or i == len(blocks) - 1


def test_table_payload_holds_no_strings():
    payload = table_payload("vk", {"gmax": 2})
    assert set(payload) == {"schema", "ensemble", "bounds", "entries"}
    entries = list(payload["entries"])  # an iterator: read it once
    assert len(entries) == 15  # row g holds k = -3g..g: 1, 5 and 9 entries
    keys = [k for k, _ in entries]
    assert keys == sorted(keys)
    assert all(type(a) is int and type(b) is int and type(v) in (int, Fraction)
               for (a, b), v in entries)


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
def test_gen_json_is_made_holding_only_a_few_rows(monkeypatch, ensemble, bounds):
    # the engine yields its table a row at a time and keeps only the rows its
    # relation reads, so the Python objects alive at once stay far below the
    # bytes written (whole tables held as ints took 1.0 to 1.8 times them);
    # hzlag.recursions is imported with this file, so its import is not traced
    monkeypatch.setattr(cli, "_BLOCK", 4096)
    sink = _CountingSink()
    tracemalloc.start()
    try:
        payload_to_json(table_payload(ensemble, bounds), sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * sink.size, (peak, sink.size)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(ENSEMBLES)),
       st.lists(st.tuples(st.integers(-300, 300), st.integers(-300, 300),
                          st.one_of(st.integers(-10**40, 10**40), st.fractions())),
                max_size=12))
def test_table_writers_on_generated_entries(ensemble, rows):
    spec = ENSEMBLES[ensemble]
    k1, k2 = spec.keys
    payload = {
        "schema": "hzlag-table/1",
        "ensemble": ensemble,
        "bounds": {name: 1 for name in spec.bounds},
        "entries": [((a, b), v) for a, b, v in rows],
    }
    data = _json_bytes(payload)
    assert data == _json_reference(payload)
    want = "".join(f"{a},{b},{rat_str_explicit(Fraction(v))}\n" for a, b, v in rows)
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "t.csv")
        payload_to_csv(io.BytesIO(data), ensemble, out)
        assert pathlib.Path(out).read_text() == f"{k1},{k2},value\n{want}"


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


def test_oracle_outputs(cache, capsys):
    assert main(["oracle", "--mu", "4"]) == 0
    assert main(["oracle", "--mu", "1,1,1", "--connected"]) == 0
    assert main(["oracle", "--mu", "3", "--rows", "N", "--cols", "N+1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "14*N + 10*N^-1",
        "2*N^-1",
        "5*N + 10 + 7*N^-1 + 2*N^-2",
    ]


def test_oracle_bad_mu(cache):
    assert main(["oracle", "--mu", "x"]) == 2


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


@pytest.mark.parametrize("argv", [
    ["oracle", "--mu", "0"],
    ["oracle", "--mu", "8"],
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
    # within the laguerre option bounds, but over cli.GEN_BYTES: refused
    # before the table is built (200/432 is accepted)
    ["gen", "laguerre", "--gmax", "1000", "--nmax", "2000"],
    ["gen", "laguerre", "--gmax", "200", "--nmax", "433", "--format", "csv"],
    # an --out that cannot be opened for writing: a file in a missing
    # directory, or a directory
    *[[*argv, "--out", out] for out in (OUT_IN_MISSING_DIR, OUT_DIR) for argv in (
        ["gen", *VK1], ["gen", *VK1, "--no-cache"], ["gen", *VK1, "--format", "csv"],
        ["verify", "--suite", "odes", "--nmax", "1"],
        ["series", "vk", "--k", "1", "--order", "2"])],
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
        with cli.table_bytes("laguerre", bounds, False) as f:
            size = len(f.read())
        assert abs(cli._laguerre_json_bytes(*bounds.values()) - size) < 0.06 * size, bounds
    assert cli._laguerre_json_bytes(200, 432) <= cli.GEN_BYTES < cli._laguerre_json_bytes(200, 433)
    assert cli._laguerre_json_bytes(150, 300) <= cli.GEN_BYTES


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
    assert main(["series", "vk", "--k", "64", "--order", "3"]) == 0
    assert main(["verify", "--suite", "identities",
                 "--amax", "50", "--bmax", "0", "--nmax", "0"]) == 0
    assert main(["verify", "--suite", "identities",
                 "--amax", "0", "--bmax", "50", "--nmax", "0"]) == 0
    assert main(["verify", "--suite", "odes", "--nmax", "50"]) == 0


def test_verify_empty_suite_exits_2(cache, capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "odes", "--nmax", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: suite odes runs no checks at --nmax 0\n"
    assert captured.out == ""
    assert not out.exists()


def test_verify_out_fails_before_any_suite_runs(cache, tmp_path, capsys, monkeypatch):
    ran = []
    bad = tmp_path / "missing" / "r.json"
    with monkeypatch.context() as m:
        m.setitem(cli.SUITES, "odes", lambda args: ran.append(args))
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


def test_verify_odes_suite(cache, capsys):
    assert main(["verify", "--suite", "odes"]) == 0
    out = capsys.readouterr().out
    assert "suite odes:" in out and "0 failures" in out


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


def _served(args: dict, compute, use_cache: bool = True) -> bytes:
    """The bytes cached_bytes serves for a gen entry keyed by args."""
    with cached_bytes("gen", args, compute, use_cache) as f:
        return f.read()


def test_cache_write_is_atomic(cache, monkeypatch):
    calls = []

    def compute(f):
        calls.append(1)
        f.write(b"pay")
        f.write(b"load")

    def fail(src, dst):
        raise OSError("simulated failure")

    args = {"ensemble": "test"}
    with monkeypatch.context() as m:
        m.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            _served(args, compute)
    assert not cache_path("gen", args).exists()
    assert list(cache.iterdir()) == []  # no temporary file is left behind
    assert _served(args, compute) == b"payload"
    assert len(calls) == 2  # the failed write cached nothing
    assert cache_path("gen", args).read_bytes() == _with_digest(b"payload")
    assert _served(args, compute) == b"payload"
    assert len(calls) == 2
    assert _served(args, compute, False) == b"payload"
    assert len(calls) == 3  # --no-cache computes into a temporary file
    assert [f.name for f in cache.iterdir()] == [cache_path("gen", args).name]


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
    assert cache_path("gen", args).read_bytes() == _with_digest(b"payload")


def test_gen_streams_a_table_into_its_cache_entry(cache, monkeypatch, capsys):
    # gen writes the table into the entry in blocks, and serves the entry
    monkeypatch.setattr(cli, "_BLOCK", 300)
    assert main(["gen", "vk", "--gmax", "2"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
    path = cache_path("gen", {"ensemble": "vk", "gmax": 2})
    assert path.read_bytes() == _with_digest(GOLDEN.read_bytes())
    assert [f.name for f in cache.iterdir()] == [path.name]


@pytest.mark.parametrize("no_cache", [False, True], ids=["cached", "no-cache"])
def test_engine_error_in_a_late_row_serves_nothing(cache, tmp_path, capsys, monkeypatch,
                                                    no_cache):
    # blocks of the early rows are written before row 8 fails its exact
    # division; the error still comes before any byte is served
    monkeypatch.setattr(cli, "_BLOCK", 300)
    true_div = recursions._exact_div

    def failing(num, den, anchor, i, j):
        if anchor == "3-t" and i == 8:
            raise IntegralityError(f"3-t entry ({i}, {j}) failed on purpose")
        return true_div(num, den, anchor, i, j)

    monkeypatch.setattr(recursions, "_exact_div", failing)
    written = []  # the size of each write the JSON made before the error
    true_to_json = cli.payload_to_json

    class _Counted:
        def __init__(self, f):
            self.f = f

        def write(self, b: bytes) -> int:
            written.append(len(b))
            return self.f.write(b)

    monkeypatch.setattr(cli, "payload_to_json", lambda payload, f: true_to_json(payload, _Counted(f)))
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
    path = cache_path("gen", {"ensemble": "vk", "gmax": 1})
    path.mkdir(parents=True)  # a directory where the entry belongs
    if how == "permission":  # file modes do not stop a superuser, so the refusal is simulated
        def guarded_open(file, *args, **kwargs):
            if pathlib.Path(file) == path:
                raise PermissionError(13, "Permission denied", str(file))
            return open(file, *args, **kwargs)
        monkeypatch.setattr(cli, "open", guarded_open, raising=False)
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


def test_processes_import_only_what_they_run(cache):
    # a warm gen and --version load no engine: only the cli module itself
    assert loaded_modules(["--version"], cache) == {"hzlag.cli"}
    job = ["gen", "vk", "--gmax", "2"]
    cold = loaded_modules(job, cache)
    assert "hzlag.recursions" in cold
    assert not cold & {"hzlag.exact", "hzlag.residues", "hzlag.spectral"}, cold
    for fmt in ("json", "csv"):
        assert loaded_modules([*job, "--format", fmt], cache) == {"hzlag.cli"}, fmt
