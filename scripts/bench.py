#!/usr/bin/env python3
"""Record the performance trajectory: the wall time, CPU time and peak RSS
of hzlag workloads, each run in a fresh process, written to
``BENCH_<short-sha>.json`` at the root of this checkout.

Usage: python3 scripts/bench.py [--against REV] [--runs N]

The workloads (WORKLOADS) are of two kinds.  Some run long enough that the
arithmetic kernels, the table engines and the Wick oracles show, and
interpreter start-up (about 30 ms) does not: the identities suite at
30/30/30 and 40/40/40, a cold gen of the vk table at 150, the crosscheck
suite, and the four slowest ``oracle`` queries at the limits that README
states, one with shifts of the most digits --rows and --cols accept.  The
others are the operations of ``perfbench/run.py``, the regression gate, read
from it: each table of its GEN_JOBS as a cold JSON gen (on an empty cache),
a warm JSON gen and a warm CSV gen, and its verify-all run, VERIFY_ARGS.

Each run (``measure``) is a child ``python -c _CHILD ARGV`` that imports
``decimal``, ``hzlag.cli`` and ``hzlag.engines``, and ``hzlag.verify``
where the tree has that module (a tree from before the suites left
``hzlag.cli`` holds them in it), so that both trees of ``--against`` count
the same code in the floor; it then reads its own VmHWM (the
high-water RSS in /proc/self/status; the import floor), runs
``hzlag.cli.entry()`` as ``python -m hzlag.cli ARGV`` does, and reads its
VmHWM again (the peak).  Its stdout goes to /dev/null, its working
directory and PYTHONPATH are a tree's ``src`` (so a tree's source is
measured, never an installed copy or the caller's directory), it
has its own HZLAG_CACHE_DIR (emptied before each run of a cold workload,
filled before the first run of a warm one) and its bytecode under one
PYTHONPYCACHEPREFIX per tree, written by an untimed run of each workload
first.  wall_s is the time from start to exit as this script sees it;
cpu_s is the child's user plus system time; floor_mb and peak_mb are the
two VmHWM readings, in MB of 2^20 bytes.  The up-front imports add a
few ms to a warm gen, which otherwise loads none of decimal, hzlag.engines
and hzlag.verify.

The ``ru_maxrss`` that ``wait4`` reports is no use for memory here: exec
keeps the high-water RSS of the image it replaces, and a child spawned
through fork or vfork replaces a copy of its parent, so the figure cannot
fall below the parent's own RSS.  VmHWM starts again at exec.  Where
/proc/self/status has no VmHWM (outside Linux), floor_mb and peak_mb are
None and no memory samples are recorded.

With ``--against REV``, REV's tree is exported (``git archive``) into a
temporary directory and measured alongside this checkout's working tree:
each round runs every workload on both trees, the tree that goes first
alternating from round to round.  The file names the commit checked out
(HEAD) and holds, for each tree and metric, the samples, their median and
n, and the host's nproc, Python version and platform.  Its ``dirty`` flag
is set when the tracked files under ``src/``, the source measured, differ
from HEAD's before the first run or after the last; an edit made and
reverted between those two readings is not seen, and edits elsewhere (a
document, a test) do not count.  A nonzero exit of any run, or of a git
command (outside a git checkout, say, before any run starts), stops the
script with exit 1 and one ``error:`` line.  SIGTERM stops it with exit
143, after the run in progress is killed and the temporary directory
removed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# perfbench/run.py as a module, for its GEN_JOBS, gen_argv and VERIFY_ARGS
_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
PERFBENCH = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(PERFBENCH)
SHIFT = "9" * 100  # the most digits oracle accepts in a --rows/--cols shift
# name -> (hzlag arguments, cache state: "cold" is empty at each run,
# "warm" is filled once before the first)
WORKLOADS = {
    **{f"identities-{n}": ("verify --suite identities --amax {0} --bmax {0} --nmax {0}"
                           .format(n).split(), "cold") for n in (30, 40)},
    "gen-vk-150-cold": (["gen", "vk", "--gmax", "150"], "cold"),
    **{"-".join(["gen", *(a for a in job if not a.startswith("--")), label]):
       (PERFBENCH.gen_argv(job, fmt), state)
       for job in PERFBENCH.GEN_JOBS
       for label, fmt, state in (("cold", "json", "cold"), ("warm", "json", "warm"),
                                 ("warm-csv", "csv", "warm"))},
    "verify-all": (PERFBENCH.VERIFY_ARGS, "cold"),
    "crosscheck": (["verify", "--suite", "crosscheck"], "cold"),
    # the degree-24 query, the degree-24 pattern whose loop equation reaches
    # the most smaller patterns, and the slowest connected queries found
    # over every partition of 24 with two or more traces
    "oracle-24": (["oracle", "--mu", "24"], "cold"),
    "oracle-1,1,2,3,8,9": (["oracle", "--mu", "1,1,2,3,8,9"], "cold"),
    "oracle-connected-N+1": (
        ["oracle", "--mu", "1,1,1,1,2,3,4,5,6", "--connected", "--cols", "N+1"], "cold"),
    "oracle-connected-shift-100": (
        ["oracle", "--mu", "1,1,1,1,2,2,3,3,4,6", "--connected", "--rows", f"N+{SHIFT}",
         "--cols", f"N-{SHIFT}"], "cold"),
}

# runs hzlag.cli.entry() on ARGV and writes to stderr, as its last line, the
# VmHWM in KiB after the imports and at the end, however it exits ("None"
# if absent)
_CHILD = """
import sys

def vmhwm():
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None

import decimal, importlib.util, hzlag.cli, hzlag.engines
if importlib.util.find_spec("hzlag.verify"):
    import hzlag.verify
floor = vmhwm()
try:
    sys.exit(hzlag.cli.entry())
finally:
    print(floor, vmhwm(), file=sys.stderr)
"""


def measure(argv: list[str], src: Path, cache: Path, pycache: Path) -> dict:
    """wall_s, cpu_s, floor_mb and peak_mb (None where the child finds no
    VmHWM) of one fresh child that runs ``hzlag ARGV`` from the tree src,
    with HZLAG_CACHE_DIR=cache and its bytecode cached under pycache.  A
    nonzero exit raises RuntimeError."""
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(src),
           "HZLAG_CACHE_DIR": str(cache), "PYTHONPYCACHEPREFIX": str(pycache)}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    # cwd=src: -c puts the working directory first on sys.path
    r = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env, cwd=src,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if r.returncode:
        raise RuntimeError(f"hzlag {' '.join(argv)} on {src} exited {r.returncode}: {r.stderr}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    floor, peak = (None if kib == "None" else int(kib) / 1024
                   for kib in r.stderr.splitlines()[-1].split())
    return {"wall_s": round(wall, 4), "cpu_s": round(cpu, 4), "floor_mb": floor, "peak_mb": peak}


def git(*args: str) -> str:
    """The stdout of ``git -C ROOT args``, stripped; a git that fails or
    cannot start raises RuntimeError with a one-line message."""
    try:
        r = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                           errors="replace")
    except OSError as e:
        raise RuntimeError(f"cannot run git: {e.strerror}") from e
    if r.returncode:
        raise RuntimeError(f"git {' '.join(args)} exited {r.returncode}: "
                           + " ".join(r.stderr.split()))
    return r.stdout.strip()


def src_changed() -> bool:
    """Whether the tracked files under src/ differ from HEAD's."""
    return bool(git("status", "--porcelain", "--untracked-files=no", "--", "src"))


def export(rev: str, into: Path) -> None:
    """Write the tree of commit rev into the directory into."""
    tar_path = into.with_suffix(".tar")
    git("archive", "-o", str(tar_path), rev)
    with tarfile.open(tar_path) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:  # Python before 3.11.4, 3.10.12
            tar.extractall(into)


class Tree:
    """One source tree under measurement, with its scratch directory."""

    def __init__(self, src: Path, scratch: Path):
        self.src, self.scratch = src, scratch
        self.samples: dict[str, list[float]] = {}

    def run(self, name: str, timed: bool = True) -> None:
        argv, state = WORKLOADS[name]
        cache = self.scratch / f"cache-{name}"
        if state == "cold":
            shutil.rmtree(cache, ignore_errors=True)
        sample = measure(argv, self.src, cache, self.scratch / "pycache")
        if timed:
            for metric, value in sample.items():
                if value is not None:
                    self.samples.setdefault(f"{name}.{metric}", []).append(value)

    def summary(self) -> dict:
        return {metric: {"samples": xs, "median": round(statistics.median(xs), 4), "n": len(xs)}
                for metric, xs in self.samples.items()}


def main(argv: list[str] | None = None) -> int:
    # SIGTERM as SystemExit, so that the temporary directory is removed: a
    # run in progress is killed and waited for, then the with block exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", metavar="REV", help="also measure this commit's tree")
    p.add_argument("--runs", type=int, default=10, help="timed runs of each workload (default 10)")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be 1 or more")
    sha = git("rev-parse", "--short", "HEAD")
    against = git("rev-parse", "--short", f"{args.against}^{{commit}}") if args.against else None
    dirty = src_changed()
    with tempfile.TemporaryDirectory(prefix="hzlag-bench-") as d:
        trees = {"commit": Tree(ROOT / "src", Path(d) / "commit")}
        if against:
            export(against, Path(d) / "against-tree")
            trees["against"] = Tree(Path(d) / "against-tree" / "src", Path(d) / "against")
        for tree in trees.values():  # write bytecode and fill the warm caches
            for name in WORKLOADS:
                tree.run(name, timed=False)
        for i in range(args.runs):
            order = list(trees.values())
            for tree in order[::-1] if i % 2 else order:
                for name in WORKLOADS:
                    tree.run(name)
    report = {
        "schema": "hzlag-bench/1",
        "commit": sha,
        "dirty": src_changed() or dirty,
        "against": against,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()},
        "workloads": {name: {"argv": " ".join(argv), "cache": state}
                      for name, (argv, state) in WORKLOADS.items()},
        "results": {role: tree.summary() for role, tree in trees.items()},
    }
    out = ROOT / f"BENCH_{sha}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    for metric, stats in report["results"]["commit"].items():
        line = f"{metric:<44} {stats['median']:8.4f}"
        if against:
            line += f"  {against} {report['results']['against'][metric]['median']:8.4f}"
        print(line)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
