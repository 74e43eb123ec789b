#!/usr/bin/env python3
"""Generate every supported table at generous bounds into an output directory.

Usage: python3 scripts/gen_all_tables.py [OUTDIR]

Writes JSON and CSV for each ensemble.  All output is byte-deterministic.
"""

from __future__ import annotations

import pathlib
import sys

from hzlag.cli import payload_to_csv, payload_to_json, table_payload

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
        payload = table_payload(ensemble, bounds)
        stem = ensemble + "-" + "-".join(f"{k}{v}" for k, v in sorted(bounds.items()))
        (outdir / f"{stem}.json").write_bytes(payload_to_json(payload))
        payload_to_csv(payload, str(outdir / f"{stem}.csv"))
        print(f"wrote {stem}.json / {stem}.csv ({len(payload['entries'])} entries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
