#!/usr/bin/env python3
"""Print the median wall time of each slowest ``hzlag oracle`` query that
README's limits paragraph states.

Usage: python3 scripts/oracle_limits.py

Each query runs 5 times, each in a fresh child (``python -m hzlag.cli
oracle ...``) with this checkout's ``src`` on PYTHONPATH and stdout sent to
/dev/null, and the script prints the median of the children's wall times,
interpreter start included.  A child that exits nonzero stops the script
with its stderr.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
SHIFT = "9" * 100  # the most digits oracle accepts in a --rows/--cols shift

QUERIES = [
    ["--mu", "24"],
    # the degree-24 pattern whose loop equation reaches the most smaller patterns
    ["--mu", "1,1,2,3,8,9"],
    # the slowest connected queries found over every partition of 24 with
    # two or more traces
    ["--mu", "1,1,1,1,2,3,4,5,6", "--connected", "--cols", "N+1"],
    ["--mu", "1,1,1,1,2,2,3,3,4,6", "--connected", "--rows", f"N+{SHIFT}",
     "--cols", f"N-{SHIFT}"],
]


def wall_time(argv: list[str]) -> float:
    """Seconds that a fresh child takes to run ``hzlag oracle ARGV``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "hzlag.cli", "oracle", *argv],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, text=True)
    elapsed = time.perf_counter() - start
    if r.returncode:
        raise RuntimeError(f"hzlag oracle {' '.join(argv)} exited {r.returncode}: {r.stderr}")
    return elapsed


def main() -> int:
    for argv in QUERIES:
        median = statistics.median(wall_time(argv) for _ in range(RUNS))
        shown = " ".join(a.replace(SHIFT, "k") for a in argv)
        print(f"{median:6.2f} s  oracle {shown}")
    print(f"(median of {RUNS} fresh processes each; k = {SHIFT[:3]}...{SHIFT[-3:]}, "
          f"{len(SHIFT)} digits)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
