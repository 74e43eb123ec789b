#!/usr/bin/env python3
"""Record the performance trajectory: the wall and CPU time of hzlag
workloads that take seconds, each run in a fresh process, written to
``BENCH_<short-sha>.json`` at the root of this checkout.

Usage: python3 scripts/bench.py [--against REV] [--runs N]

The workloads (WORKLOADS) are chosen to run long enough that the arithmetic
kernels, the table engines and the Wick oracles show, and interpreter
start-up (about 30 ms) does not: the identities suite at 30/30/30 and
40/40/40, cold gen of the vk table at 150 and of the laguerre table at
150/300, a warm CSV of that laguerre table, the crosscheck suite, and the
four slowest ``oracle`` queries at its limits that README states, one with
shifts of the most digits --rows and --cols accept.  Each timed run is
``python -m hzlag.cli ARGV``
with stdout sent to /dev/null, PYTHONPATH set to a tree's ``src`` (so a
tree's source is measured, never an installed copy), its own
HZLAG_CACHE_DIR (emptied before each run of a cold workload, filled before
the first run of a warm one) and its bytecode under one
PYTHONPYCACHEPREFIX per tree, written by an untimed run of each workload
first.  wall_s is the time from start to exit as this script sees it;
cpu_s is the child's user plus system time.

With ``--against REV``, REV's tree is exported (``git archive``) into a
temporary directory and measured alongside this checkout's working tree:
each round runs every workload on both trees, the tree that goes first
alternating from round to round.  The file names the commit checked out
(HEAD, with ``dirty`` set when the working tree differs from it) and holds,
for each tree and metric, the samples, their median and n, and the host's
nproc, Python version and platform.  A nonzero exit of any run stops the
script with exit 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAGUERRE = ["gen", "laguerre", "--gmax", "150", "--nmax", "300"]
SHIFT = "9" * 100  # the most digits oracle accepts in a --rows/--cols shift
# name -> (hzlag arguments, cache state: "cold" is empty at each run,
# "warm" is filled once before the first)
WORKLOADS = {
    **{f"identities-{n}": ("verify --suite identities --amax {0} --bmax {0} --nmax {0}"
                           .format(n).split(), "cold") for n in (30, 40)},
    "gen-vk-150-cold": (["gen", "vk", "--gmax", "150"], "cold"),
    "gen-laguerre-150-300-cold": (LAGUERRE, "cold"),
    "gen-laguerre-150-300-warm-csv": ([*LAGUERRE, "--format", "csv"], "warm"),
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


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """Write the tree of commit rev into the directory into."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
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
        env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(self.src),
               "HZLAG_CACHE_DIR": str(cache),
               "PYTHONPYCACHEPREFIX": str(self.scratch / "pycache")}
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        r = subprocess.run([sys.executable, "-m", "hzlag.cli", *argv], env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if r.returncode:
            raise RuntimeError(f"hzlag {' '.join(argv)} on {self.src} exited {r.returncode}: "
                               f"{r.stderr.decode(errors='replace')}")
        if timed:
            cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            self.samples.setdefault(f"{name}.wall_s", []).append(round(wall, 4))
            self.samples.setdefault(f"{name}.cpu_s", []).append(round(cpu, 4))

    def summary(self) -> dict:
        return {metric: {"samples": xs, "median": round(statistics.median(xs), 4), "n": len(xs)}
                for metric, xs in self.samples.items()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", metavar="REV", help="also measure this commit's tree")
    p.add_argument("--runs", type=int, default=10, help="timed runs of each workload (default 10)")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be 1 or more")
    sha = git("rev-parse", "--short", "HEAD")
    against = git("rev-parse", "--short", f"{args.against}^{{commit}}") if args.against else None
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
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
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
        line = f"{metric:<40} {stats['median']:8.4f}"
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
