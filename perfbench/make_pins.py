"""Record the expected output of every benchmark operation in pins.json.

    python3 perfbench/make_pins.py

Run from the root of a checkout whose outputs are known to be right.  Each
operation runs once, untraced, on an empty cache; the pins are the sha256
and item count of every ``gen`` table (JSON and CSV) and of the verify
report.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import GEN_JOBS, PINS, VERIFY_ARGS, WORK, Runner, gen_argv, pin_key, sha256_file


def main() -> int:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pins-", dir=WORK))
    runner = Runner(workdir, time.monotonic() + 3600)
    cache = workdir / "cache"
    pins = {}
    try:
        for argv in [VERIFY_ARGS] + [gen_argv(j, f) for j in GEN_JOBS for f in ("json", "csv")]:
            shutil.rmtree(cache, ignore_errors=True)
            target = workdir / "out"
            res = runner.spawn([sys.executable, "-m", "hzlag.cli", *argv, "--out", str(target)], cache)
            if res["rc"] != 0:
                raise SystemExit(f"{pin_key(argv)} exited {res['rc']}")
            if argv[0] == "verify":
                checks = [c for s in json.loads(target.read_text())["suites"] for c in s["checks"]]
                if any(c["status"] != "pass" for c in checks):
                    raise SystemExit("verify report lists failures")
                items = len(checks)
            elif "json" in argv:
                items = len(json.loads(target.read_text())["entries"])
            else:
                items = target.read_text().count("\n") - 1
            pins[pin_key(argv)] = {"sha256": sha256_file(target), "items": items}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
