"""Benchmark entry point: one workload, one seed, one line of JSON at the end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: graph-pipeline, cotree-dp,
obstruction-search (see bench/README.md). Each run starts fresh
interpreters (bench/child.py) with their address space capped at 3 GiB
and string hashing fixed (PYTHONHASHSEED=0), so that runs repeat exactly.

* --trace 0: four set-up-only runs, then the measured run; prints every
  end-to-end metric (setup_s is the median of the five set-ups);
* --trace 1: one untraced pass, then the same pass traced; prints every
  per-layer metric, and trace.overhead_ratio = traced / untraced phase.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Exits 2 without a result when src/cographpart is missing, and 1 when a
run crashes or overruns.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("graph-pipeline", "cotree-dp", "obstruction-search")
ADDRESS_SPACE = 3 << 30
SETUP_RUNS = 5
DEADLINE = 170.0     # seconds for the whole run, children included


class RunError(Exception):
    pass


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def child(args, mode: str, started: float) -> tuple[float, dict]:
    """Run bench/child.py; returns (monotonic spawn time, its JSON result)."""
    remaining = DEADLINE - (time.monotonic() - started)
    if remaining < 5:
        raise RunError(f"no time left for the {mode} run")
    argv = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED="0"),
                              timeout=remaining, preexec_fn=_cap_address_space)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} run overran the {DEADLINE:.0f} s deadline") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} run exited with status {proc.returncode}")
    return spawned, json.loads(lines[-1])


def latency_stats(result: dict) -> dict:
    """p50 and the highest percentile with >= 10 ops above it; failed ops rank slowest."""
    lat = result["latencies"]
    worst = max(lat)
    ranked = sorted(x if ok else worst for x, ok in zip(lat, result["ok"]))
    n = len(ranked)
    i = max(0, n - 11)
    return {"p50": statistics.median(ranked), "tail": ranked[i],
            "tail_pct": 100.0 * (i + 1) / n, "n": n}


def report(result: dict) -> None:
    """Failures, rejections and the input census, as human-readable lines."""
    for line in result["failures"]:
        print(f"FAILED op {line}")
    for line in result["probe_failures"]:
        print(f"known-defect probe failed: {line}")
    print(f"known-defect probes: {result['probe_attempted']} ops, "
          f"{len(result['probe_failures'])} failed")
    for line in result["rejections"]:
        print(f"REJECTED {line}")
    for name in result["self_test_failures"]:
        print(f"REFEREE SELF-TEST FAILED {name}")
    for row in result["census"]:
        print("census " + " ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in row.items()))


def correct(*results: dict) -> bool:
    return all(not r["rejections"] and not r["self_test_failures"] for r in results)


def measure(args, started: float) -> dict:
    setups = []
    for _ in range(SETUP_RUNS - 1):
        spawned, res = child(args, "setup", started)
        setups.append(res["ready"] - spawned)
    spawned, res = child(args, "measure", started)
    setups.append(res["ready"] - spawned)
    report(res)
    stats = latency_stats(res)
    ok = res["ok"].count(True)
    attempted = len(res["ok"])
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "ok_ops_per_s": (ok / res["phase_s"], "1/s",
                         f"{ok} ok ops in {res['phase_s']:.2f} s, {res['passes']} pass(es)"),
        "op_p50_ms": (1e3 * stats["p50"], "ms", f"{stats['n']} ops"),
        "op_tail_ms": (1e3 * stats["tail"], "ms",
                       f"p{stats['tail_pct']:.1f} of {stats['n']} ops"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB", "1 process"),
        "cli_p50_ms": (1e3 * statistics.median(res["cli"]), "ms", f"{len(res['cli'])} CLI runs"),
    }
    print(f"{args.workload} seed {args.seed}:")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:14s} {value:12.4f} {unit:4s} ({samples})")
    print(f"  {'fail_ratio':14s} {(attempted - ok) / attempted:12.4f} -    ({attempted} ops)")
    return {"correct": correct(res), "attempted": attempted, "failed": attempted - ok,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def trace(args, started: float) -> dict:
    _, base = child(args, "once", started)
    _, res = child(args, "traced", started)
    report(res)
    layers = dict(res["layers"])
    layers["trace.overhead_ratio"] = res["phase_s"] / base["phase_s"]
    units = {name: spec["unit"] for name, spec in
             ((m["name"], m) for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"])}
    missing = sorted(set(units) - set(layers))
    if missing:
        raise RunError(f"traced run lacks per-layer metrics {missing}")
    print(f"{args.workload} seed {args.seed} traced ({res['spans_file']}):")
    for name in units:
        print(f"  {name:40s} {layers[name]:14.4f} {units[name]}")
    attempted = len(res["ok"])
    ok = res["ok"].count(True)
    return {"correct": correct(base, res), "attempted": attempted, "failed": attempted - ok,
            "metrics": {name: {"value": layers[name], "unit": units[name]} for name in units}}


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cographpart" / "__init__.py").is_file():
        print(f"no src/cographpart under {ROOT}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        result = trace(args, started) if args.trace else measure(args, started)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
