"""End-to-end tests of the command-line interface: determinism, exit codes,
serialization formats, and the table cache."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import hzlag
from hzlag.cli import ENSEMBLES, cache_path, cached_bytes, main
from hzlag.recursions import c1_closed_form

GOLDEN = pathlib.Path(__file__).parent / "golden" / "vk_gmax2.json"
# eval-fab stdout for 0 <= A, B <= 12: [bare, --at 1/2] per "A,B"
EVAL_FAB_GOLDEN = pathlib.Path(__file__).parent / "golden" / "eval_fab_ab12.json"
SKB_GOLDEN = pathlib.Path(__file__).parent / "golden" / "series_skb_k3_beta1_order40.json"
# gen JSON of the four integer engines, recorded when they still computed
# over Fraction
TABLE_GOLDENS = [
    (["laguerre", "--gmax", "4", "--nmax", "12"], "laguerre_g4_n12.json"),
    (["gauss", "--gmax", "8"], "gauss_g8.json"),
    (["glag-k1", "--rmax2", "6", "--nmax", "10"], "glag_k1_r6_n10.json"),
    (["vk", "--gmax", "8"], "vk_gmax8.json"),
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
    src_root = pathlib.Path(hzlag.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "hzlag.cli", *args],
        capture_output=True,
        env={"PATH": "", "PYTHONPATH": str(src_root),
             "HZLAG_CACHE_DIR": str(cache_dir)},
    )


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
])
def test_bad_input_exits_2(cache, capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_limits_are_inclusive(cache, capsys):
    assert main(["eval-fab", "--a", "300", "--b", "0"]) == 0
    assert main(["eval-fab", "--a", "0", "--b", "300", "--at", "1/2"]) == 0
    assert capsys.readouterr().out == "0\n-300\n"
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
    assert main(["verify", "--suite", "constraints"]) == 0
    capsys.readouterr()
    corrupted = 0
    for f in cache.iterdir():
        payload = json.loads(f.read_text())
        if payload["ensemble"] == "laguerre":
            payload["entries"][5]["value"] = "99999"
            f.write_text(json.dumps(payload))
            corrupted += 1
    assert corrupted
    assert main(["verify", "--suite", "constraints"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    # bypassing the poisoned cache must pass again
    assert main(["verify", "--suite", "constraints", "--no-cache"]) == 0


def test_cache_write_is_atomic(cache, monkeypatch):
    calls = []

    def compute():
        calls.append(1)
        return b"payload"

    def fail(src, dst):
        raise OSError("simulated failure")

    args = {"ensemble": "test"}
    with monkeypatch.context() as m:
        m.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            cached_bytes("gen", args, compute, True)
    assert not cache_path("gen", args).exists()
    assert list(cache.iterdir()) == []  # no temporary file is left behind
    assert cached_bytes("gen", args, compute, True) == b"payload"
    assert len(calls) == 2  # the failed write cached nothing
    assert cache_path("gen", args).read_bytes() == b"payload"
    assert cached_bytes("gen", args, compute, True) == b"payload"
    assert len(calls) == 2


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
