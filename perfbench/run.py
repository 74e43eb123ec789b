"""hzlag benchmark: runs the CLI as users run it and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation is a fresh
``python -m hzlag.cli`` child with ``PYTHONPATH=src`` (so the checkout's
source is measured, never an installed copy), its own empty temporary
``HZLAG_CACHE_DIR`` and output directory under ``.perfbench_work/``.  One
child runs at a time.  Operations repeat in rounds, each round in an order
drawn from ``--seed``, until ``--seconds`` have passed and at least
``MIN_ROUNDS`` rounds are done.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` every round runs once untraced and
once under ``tracer.py`` (through ``child.py``) and the line holds the
per-layer metrics.  Outputs are compared with ``pins.json`` (made by
``make_pins.py``); a mismatch or a nonzero exit counts as a failed
operation.  README.md maps each metric to the workload it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"

MIN_ROUNDS = 3
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170  # a run must end within 180 s

# Sizes fit 4 + 22 x 3 runs of at least MIN_ROUNDS rounds into an hour.
# verify-all runs every suite below the CLI defaults (amax = bmax = nmax = 10
# takes ~53 s a run); exact arithmetic under the identities suite still does
# ~94% of the work.  The gen tables take ~7 s a round when cold.
VERIFY_ARGS = ["verify", "--suite", "all", "--amax", "6", "--bmax", "6",
               "--nmax", "4", "--gmax", "6", "--mmax", "6"]
GEN_JOBS = [
    ["laguerre", "--gmax", "150", "--nmax", "300"],
    ["gauss", "--gmax", "200"],
    ["vk", "--gmax", "30"],
    ["glag-k1", "--rmax2", "120", "--nmax", "240"],
]


def gen_argv(job: list[str], fmt: str) -> list[str]:
    return ["gen", *job, "--format", fmt]


# workload -> operations of one round; an operation is (kind, argv)
WORKLOADS = {
    "verify-all": [("verify", VERIFY_ARGS)],
    "gen-cold": [("gen", gen_argv(job, "json")) for job in GEN_JOBS],
    "gen-warm": [("gen", gen_argv(job, fmt)) for job in GEN_JOBS for fmt in ("json", "csv")],
}


def pin_key(argv: list[str]) -> str:
    return " ".join(argv)


class Runner:
    """Starts one child at a time and times it with ``os.wait4``."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.n = 0

    def env(self, cache: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["HZLAG_CACHE_DIR"] = str(cache)
        return env

    def spawn(self, cmd: list[str], cache: Path) -> dict:
        """Run ``cmd`` to completion; return exit code, stdout, wall, CPU, RSS."""
        self.n += 1
        out_path = self.workdir / f"stdout-{self.n}"
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                    env=self.env(cache), cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        out_path.unlink()
        return {
            "rc": proc.returncode,
            "stdout": stdout,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def cache_state(cache: Path) -> list:
    return sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns) for p in cache.iterdir())


class Workload:
    def __init__(self, name: str, seed: int, pins: dict, runner: Runner):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.pins = pins
        self.runner = runner
        self.work = runner.workdir
        self.ops = WORKLOADS[name]
        self.warm_cache: Path | None = None
        self.warm_state: list | None = None

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))

    # -- one operation -----------------------------------------------------

    def run_op(self, kind: str, argv: list[str], traced: bool) -> dict:
        """Run one operation; return its sample (timings, items, failures)."""
        cache = self.warm_cache or self.fresh_dir("cache-")
        out = self.fresh_dir("out-")
        trace = out / "trace.json"
        target = out / ("report.json" if kind == "verify" else "table")
        cli_argv = [*argv, "--out", str(target)]
        if traced:
            cmd = [sys.executable, str(HERE / "child.py"), str(trace), *cli_argv]
        else:
            cmd = [sys.executable, "-m", "hzlag.cli", *cli_argv]
        res = self.runner.spawn(cmd, cache)
        pin = self.pins.get(pin_key(argv), {})
        ok = res["rc"] == 0 and target.exists() and sha256_file(target) == pin.get("sha256")
        if ok and kind == "verify":
            ok = self.verify_report(target, pin)
        if self.warm_state is not None:
            ok = ok and cache_state(self.warm_cache) == self.warm_state
        sample = {**res, "items": pin.get("items", 0), "attempted": 1, "failed": 0 if ok else 1,
                  "bytes_out": len(res["stdout"]) + (target.stat().st_size if target.exists() else 0)}
        if traced:
            sample["trace"] = json.loads(trace.read_text()) if trace.exists() else None
        shutil.rmtree(out)
        if self.warm_cache is None:
            shutil.rmtree(cache)
        return sample

    @staticmethod
    def verify_report(path: Path, pin: dict) -> bool:
        report = json.loads(path.read_text())
        checks = [c for s in report["suites"] for c in s["checks"]]
        return (all(c["status"] == "pass" for c in checks)
                and len(checks) == pin.get("items"))

    # -- set-up and rounds -------------------------------------------------

    def setup(self) -> float:
        """Untimed preparation: the median of SETUP_REPEATS fresh
        ``hzlag --version`` starts, plus, for gen-warm, one cache fill (as
        long as a gen-cold round, too long to repeat within the run budget)."""
        starts = []
        for _ in range(SETUP_REPEATS):
            res = self.runner.spawn([sys.executable, "-m", "hzlag.cli", "--version"],
                                    self.work / "no-cache")
            if res["rc"] != 0 or not res["stdout"].startswith("hzlag "):
                raise SystemExit("set-up failed: hzlag --version")
            starts.append(res["wall"])
        total = statistics.median(starts)
        if self.name == "gen-warm":
            cache = self.fresh_dir("cache-")
            for job in GEN_JOBS:
                argv = gen_argv(job, "json")
                out = self.fresh_dir("out-")
                res = self.runner.spawn(
                    [sys.executable, "-m", "hzlag.cli", *argv, "--out", str(out / "t")], cache)
                if res["rc"] != 0 or sha256_file(out / "t") != self.pins[pin_key(argv)]["sha256"]:
                    raise SystemExit(f"set-up failed: {pin_key(argv)}")
                shutil.rmtree(out)
                total += res["wall"]
            self.warm_cache = cache
            self.warm_state = cache_state(cache)
        return total

    def rounds(self, seconds: float, traced: bool) -> list[list[dict]]:
        """Run rounds until ``seconds`` pass; each round holds one sample per
        operation (``traced``: an untraced and then a traced sample)."""
        out = []
        t0 = time.perf_counter()
        while len(out) < (1 if traced else MIN_ROUNDS) or time.perf_counter() - t0 < seconds:
            ops = list(range(len(self.ops)))
            self.rng.shuffle(ops)
            samples = []
            for mode in ([False, True] if traced else [False]):
                for i in ops:
                    kind, argv = self.ops[i]
                    samples.append({"op": i, **self.run_op(kind, argv, mode)})
            out.append(samples)
            if time.monotonic() > self.runner.deadline - 60:
                break  # a round can take ~40 s; start none that could hit the deadline
        return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def per_op_median(rounds: list[list[dict]], field: str) -> float:
    """Sum over operations of the median of ``field`` across rounds: the
    cost of one pass over the workload, robust to a slow outlier."""
    by_op: dict[int, list[float]] = {}
    for samples in rounds:
        for s in samples:
            by_op.setdefault(s["op"], []).append(s[field])
    return sum(statistics.median(v) for v in by_op.values())


def end_to_end(rounds, setup_s: float) -> dict:
    samples = [s for r in rounds for s in r]
    wall = per_op_median(rounds, "wall")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    items = sum(s["items"] for s in rounds[0])
    return {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "wall_s": (wall, "s", len(rounds)),
        "cpu_s": (per_op_median(rounds, "cpu"), "s", len(rounds)),
        "peak_rss_mb": (max(s["rss_mb"] for s in samples), "MB", len(samples)),
        "items_per_s": (items / wall, "1/s", len(rounds)),
        "pass_ratio": ((attempted - failed) / attempted, "ratio", attempted),
    }


def layer_metrics(rounds) -> dict:
    """Per-layer metrics of each traced round, combined by median."""
    from tracer import LAYERS, METRICS

    per_round = []
    for samples in rounds:
        traced = [s for s in samples if "trace" in s]
        plain = [s for s in samples if "trace" not in s]
        traces = [s["trace"] for s in traced if s["trace"]]
        stats: dict[str, list] = {}
        for t in traces:
            for name, v in t["stats"].items():
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += v[i]
        traced_wall = sum(s["wall"] for s in traced)
        m: dict[str, float | None] = {}
        field = {"calls": 0, "self": 1, "incl": 2}
        for metric, (kind, names) in METRICS.items():
            have = [stats[n][field[kind]] for n in names if n in stats]
            m[metric] = sum(have) if have else None
        for layer in set(LAYERS.values()):
            own = [v[1] for n, v in stats.items() if n.split(".", 1)[0] == layer]
            m[f"{layer}.self_s"] = sum(own) if own else None
        misses = [t["fab_misses"] for t in traces if t["fab_misses"] is not None]
        m["residues.fab.misses"] = sum(misses) if misses else None
        caches = [t["cache"] for t in traces if t["cache"] is not None]
        for key, metric in (("hits", "cli.cache.hits"), ("misses", "cli.cache.misses"),
                            ("read_s", "cli.cache.read_s"), ("write_s", "cli.cache.write_s")):
            m[metric] = sum(c[key] for c in caches) if caches else None
        m["recursions.entries"] = sum(t["entries"] for t in traces)
        m["cli.bytes_out"] = sum(s["bytes_out"] for s in traced)
        m["hzlag.import_s"] = sum(t["import_s"] for t in traces)
        m["trace.overhead_s"] = traced_wall - sum(s["wall"] for s in plain)
        m["trace.coverage"] = sum(t["top_s"] for t in traces) / traced_wall
        m["trace.wall_s"] = traced_wall
        per_round.append(m)
    return {
        k: (None if per_round[0][k] is None else statistics.median(r[k] for r in per_round))
        for k in per_round[0]
    }


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hzlag" / "cli.py").is_file():
        print(f"error: no hzlag source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    runner = Runner(workdir, time.monotonic() + RUN_DEADLINE_S)
    try:
        wl = Workload(args.workload, args.seed, pins, runner)
        setup_s = wl.setup()
        rounds = wl.rounds(args.seconds, bool(args.trace))
        samples = [s for r in rounds for s in r]
        attempted = sum(s["attempted"] for s in samples)
        failed = sum(s["failed"] for s in samples)
        if args.trace:
            values = layer_metrics(rounds)
            wanted = spec["per_layer"]
            counts = {m["name"]: len(rounds) for m in wanted}
            save_trace(args.workload, rounds, values)
        else:
            e2e = end_to_end(rounds, setup_s)
            values = {k: v[0] for k, v in e2e.items()}
            wanted = spec["end_to_end"]
            counts = {k: v[2] for k, v in e2e.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds, {attempted} operations, {failed} failed")
    for m in wanted:
        v = values.get(m["name"])
        shown = "absent" if v is None else f"{v:.6g}"
        print(f"#   {m['name']:<40} {shown:>14} {m['unit']:<6} n={counts[m['name']]}")
        metrics[m["name"]] = {"value": 0 if v is None else v, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def save_trace(workload: str, rounds: list, values: dict) -> None:
    """Write the traced run's metrics and per-process aggregates and spans
    to ``.perfbench_work/trace-<workload>.json``."""
    traces = [s["trace"] for r in rounds for s in r if s.get("trace")]
    (WORK / f"trace-{workload}.json").write_text(
        json.dumps({"metrics": values, "processes": traces}))


if __name__ == "__main__":
    sys.exit(main())
