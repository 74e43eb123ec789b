#!/usr/bin/env python3
"""Generate every supported table at generous bounds into an output directory.

Usage: python3 scripts/gen_all_tables.py [OUTDIR]

Writes JSON and CSV for each ensemble by running ``hzlag gen`` (uncached),
so each file is byte for byte what ``gen`` writes.
"""

from __future__ import annotations

import pathlib
import sys

from hzlag.cli import main as hzlag_main

JOBS = [
    ("laguerre", {"gmax": 8, "nmax": 30}),
    ("gauss", {"gmax": 12}),
    ("vk", {"gmax": 6}),
    ("glag-k1", {"rmax2": 8, "nmax": 12}),
]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    outdir = pathlib.Path(argv[0] if argv else "tables")
    outdir.mkdir(parents=True, exist_ok=True)
    for ensemble, bounds in JOBS:
        stem = ensemble + "-" + "-".join(f"{k}{v}" for k, v in sorted(bounds.items()))
        flags = [x for name, v in bounds.items() for x in (f"--{name}", str(v))]
        for fmt in ("json", "csv"):
            rc = hzlag_main(["gen", ensemble, *flags, "--no-cache",
                             "--format", fmt, "--out", str(outdir / f"{stem}.{fmt}")])
            if rc:
                return rc
        print(f"wrote {stem}.json / {stem}.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
