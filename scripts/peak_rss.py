#!/usr/bin/env python3
"""Print the peak RSS of ``hzlag gen`` on each of the benchmark's gen jobs,
and of the benchmark's verify run.

Usage: python3 scripts/peak_rss.py

Each measurement runs ``hzlag.cli.main(ARGV)`` in a fresh child with this
checkout's ``src`` on PYTHONPATH and stdout sent to /dev/null.  The child
reads its own VmHWM (the high-water RSS in /proc/self/status) twice: right
after it imports ``hzlag.cli`` and the modules every cold gen loads besides
(``hzlag.engines`` and ``decimal``), its import floor, and after main
returns, its peak.  A warm gen loads neither module; a cold vk gen also
loads ``fractions``, which counts towards its excess over the floor.
The script prints an import-only child's floor, then, for each job of
``perfbench/run.py``'s GEN_JOBS, the peak of a cold JSON gen (on an empty
cache), a warm JSON gen and a warm CSV gen (on the cache the cold one
filled), each with its excess over its own child's floor, and last the
peak of ``hzlag VERIFY_ARGS --out FILE`` on an empty cache, VERIFY_ARGS
being the benchmark's verify-all run.  MB is 2^20 bytes, as in the
benchmark.

Every child reads its bytecode from one PYTHONPYCACHEPREFIX, which a
child that only imports the package and builds its parser fills first, so
no measurement compiles the modules it imports.  Cached bytecode lowers the import floor (by about 1.3 MB with
Python 3.11), not the peak of the work after it, so it is the state with
the least room under a bound on the excess; without it, the figures would
depend on whether a ``__pycache__`` exists and on PYTHONDONTWRITEBYTECODE.

The ``ru_maxrss`` that ``wait4`` reports is no use here: exec keeps the
high-water RSS of the image it replaces, and a child spawned through fork or
vfork replaces a copy of its parent, so the figure cannot fall below the
parent's own RSS.  VmHWM starts again at exec.  Linux only: where
/proc/self/status has no VmHWM, the script says so and exits 1.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs cli.main(ARGV), when ARGV is given, and writes to stderr, as its last
# line, the VmHWM in KiB after the imports and at the end ("None" if absent)
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

import hzlag.cli
import decimal, hzlag.engines
floor = vmhwm()
rc = hzlag.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(floor, vmhwm(), file=sys.stderr)
sys.exit(rc)
"""


# imports every module of the package, the standard modules they import and
# those argparse imports as it parses (gettext imports locale), so that their
# bytecode is written
_PRIME = """
import decimal, importlib, pkgutil, hzlag
for m in pkgutil.iter_modules(hzlag.__path__):
    importlib.import_module("hzlag." + m.name)
hzlag.cli.make_parser().parse_args(["gen", "vk"])
"""


def measure(argv: list[str], cache: Path, pycache: Path) -> tuple[int, int] | None:
    """(import floor, peak) VmHWM in KiB of a fresh child that runs ``hzlag
    ARGV`` (no ARGV: only the import) with HZLAG_CACHE_DIR=cache and its
    bytecode cached under pycache, or None where the child finds no VmHWM.
    When pycache does not exist yet, a child running _PRIME fills it first.
    A nonzero exit raises RuntimeError."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(ROOT / "src"), HZLAG_CACHE_DIR=str(cache),
               PYTHONPYCACHEPREFIX=str(pycache))
    if not pycache.exists():
        subprocess.run([sys.executable, "-c", _PRIME], env=env, check=True)
    r = subprocess.run([sys.executable, "-c", _CHILD, *argv], stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, env=env, text=True)
    if r.returncode:
        raise RuntimeError(f"hzlag {' '.join(argv)} exited {r.returncode}: {r.stderr}")
    floor, peak = r.stderr.splitlines()[-1].split()
    return None if peak == "None" else (int(floor), int(peak))


def benchmark():
    """perfbench/run.py as a module, for its GEN_JOBS and VERIFY_ARGS."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def _mb(kib: int) -> str:
    return f"{kib / 1024:6.2f} MB"


def main() -> int:
    with tempfile.TemporaryDirectory() as d:
        pycache = Path(d) / "pycache"
        base = measure([], Path(d), pycache)
        if base is None:
            print("no VmHWM in /proc/self/status", file=sys.stderr)
            return 1
        print(f"import floor  {_mb(base[0])}")
        run = benchmark()
        for i, job in enumerate(run.GEN_JOBS):
            print(" ".join(job))
            cache = Path(d) / f"cache-{i}"
            for label, fmt in (("cold json", "json"), ("warm json", "json"),
                               ("warm csv", "csv")):
                floor, peak = measure(["gen", *job, "--format", fmt], cache, pycache)
                print(f"  {label:<11} {_mb(peak)}  (+{(peak - floor) / 1024:.2f} over its floor)")
        print(" ".join(run.VERIFY_ARGS))
        argv = [*run.VERIFY_ARGS, "--out", str(Path(d) / "report.json")]
        floor, peak = measure(argv, Path(d) / "cache-verify", pycache)
        print(f"  {'verify-all':<11} {_mb(peak)}  (+{(peak - floor) / 1024:.2f} over its floor)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
