"""The gha benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that has the package under src/.  It
runs whole rounds of the workload, each in a fresh interpreter started by
worker.py, one at a time, for about S seconds: a new round starts only if
the previous round's length still fits.  Every round is checked by the
independent oracle in oracle.py.

--trace 0 prints the end-to-end metrics: medians over rounds of the timed
phase (wall_s), of set-up (setup_s, at least five set-ups) and of peak
memory; per-request latency pooled over the rounds; and the median wall
time of fifteen `python -m gha.cli` launches of a trivial request.

--trace 1 profiles one more round first and prints the per-layer metrics
of that round, plus trace.overhead_s, its wall time minus the median of
the untraced rounds.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 when a result is printed, and 2 when none can be, for
instance when src/gha is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import speed  # noqa: E402

MIN_SETUPS = 5
COLD_LAUNCHES = 15
BUDGET_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"  # traced counts repeat exactly
    return env


def _timeout(started: float) -> float:
    left = BUDGET_S - (time.monotonic() - started)
    if left <= 1:
        raise BenchError("out of time")
    return left


def run_worker(work, seed: int, mode: str, started: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), work.module, work.name, str(seed), mode]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=_timeout(started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    res = json.loads(lines[-1])
    res["setup_s"] = (res["t_ready"] - t_spawn - res["bench_s"]) * speed.factor(res["setup_cal"])
    res["process_s"] = time.monotonic() - t_spawn
    return res


def cold_launch(work, rng, started: float) -> tuple[float, bool]:
    cmd = [sys.executable, "-m", "gha.cli"] + work.launch
    before = speed.calibrate(speed.SPAN_REPS)
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=_timeout(started))
    elapsed = time.perf_counter() - t
    scaled = elapsed * speed.factor(before, speed.calibrate(speed.SPAN_REPS))
    return scaled, work.check_launch(proc.returncode, proc.stdout, rng)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU.

    The CPUs of the host change speed independently, so a calibration in
    this process only describes a child that runs on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(work, seed: int, seconds: int, trace: bool) -> dict:
    pin_to_one_cpu()
    started = time.monotonic()
    traced = run_worker(work, seed, "profile", started) if trace else None
    rounds = []
    t0 = time.monotonic()
    while True:
        rounds.append(run_worker(work, seed, "round", started))
        if time.monotonic() - t0 + rounds[-1]["process_s"] > seconds:
            break
    checked = rounds + ([traced] if traced else [])
    correct = all(not r["problems"] and r["mutant_rejected"] for r in checked)
    for r in checked:
        for line in r["problems"] + r["failures"]:
            print(f"[{work.name}] {line}", file=sys.stderr)
        if not r["mutant_rejected"]:
            print(f"[{work.name}] the oracle accepted a corrupted output", file=sys.stderr)
    walls = [r["wall_s"] for r in rounds]
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in checked),
        "failed": sum(r["failed"] for r in checked),
    }
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - statistics.median(walls), "unit": "s"}
        result["metrics"] = metrics
        return result

    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(work, seed, "setup", started)["setup_s"])
    rng = random.Random(seed)
    launches = [cold_launch(work, rng, started) for _ in range(COLD_LAUNCHES)]
    if not all(ok for _, ok in launches):
        print(f"[{work.name}] a cold launch gave a wrong answer", file=sys.stderr)
        result["correct"] = False
    # a failed request misses any latency limit, so it ranks last
    lat = [x if x is not None else math.inf for r in rounds for x in r["latencies"]]
    finite = max((x for x in lat if x != math.inf), default=0.0)

    def pct(q):
        return min(nearest_rank(lat, q), finite) * 1000

    values = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in rounds) / 1024, "MB"),
        "request_p50_ms": (pct(0.50), "ms"),
        "request_p95_ms": (pct(0.95), "ms"),
        "cold_start_ms": (statistics.median(t for t, _ in launches) * 1000, "ms"),
    }
    print(f"[{work.name}] {len(rounds)} rounds, {len(lat)} requests; wall_s scaled "
          + " ".join(f"{w:.3f}" for w in walls) + ", raw "
          + " ".join(f"{r['raw_wall_s']:.3f}" for r in rounds), file=sys.stderr)
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gha" / "__init__.py").is_file():
        print(f"bench: no package at {ROOT / 'src' / 'gha'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    work = WORKLOADS.get(args.workload)
    if work is None:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        result = measure(work, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
