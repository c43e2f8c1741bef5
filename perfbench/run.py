"""Benchmark entry point for ringgraphs.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (verify-grid, extend-zn or stabilize-poly; see NOTES.md)
in fresh child processes, one at a time, each single-threaded: a closed loop
with one client. It checks every output against pins.json, prints a table of
metrics with units and sample counts, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Each run first launches seven import-only children for setup_s. Then
--trace 0 launches full children until the next one would end after
--seconds and reports the end-to-end metrics as medians over them; --trace 1
runs one untraced child, one traced child (per-layer self times and
counters) and one child counting ring arithmetic, and reports the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
RUN_LIMIT_S = 170  # every run must end within 180 s

# the metrics BENCHMARK.json gates; every workload reports each of them
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, workload: str, spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left for another child within the run limit")
    launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, workload, repr(launch), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child exceeded the run limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["duration_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - launch
    return result


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ringgraphs" / "__init__.py").is_file():
        print(f"no ringgraphs sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    spec = workloads.select(args.workload, args.seed)
    pins = workloads.load_pins()
    try:
        setup = [run_child("setup", args.workload, spec, deadline)["setup_s"]
                 for _ in range(SETUP_PROBES)]
        if args.trace:
            runs = [run_child(mode, args.workload, spec, deadline)
                    for mode in ("plain", "trace", "count")]
        else:
            runs = []
            start = time.monotonic()
            while True:
                runs.append(run_child("plain", args.workload, spec, deadline))
                if time.monotonic() - start + runs[-1]["duration_s"] > args.seconds:
                    break
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted = failed = 0
    for run in runs:
        n, bad, messages = workloads.check(args.workload, run, pins)
        attempted += n
        failed += bad
        for msg in messages[:10]:
            print(f"MISMATCH [{run['mode']}] {msg}")

    print(f"workload {args.workload}  seed {args.seed}  spec {json.dumps(spec)}")
    print(f"context: src_lines={src_lines()} (ungated)")
    if args.trace:
        metrics = trace_metrics(runs)
    else:
        metrics = end_to_end_metrics(args.workload, runs, setup)
        print_item_table(args.workload, spec, runs)
    print(f"error_rate {failed / attempted:.6g} ratio over {attempted} items "
          f"in {len(runs)} runs ({failed} failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def end_to_end_metrics(workload: str, runs: list[dict], setup: list[float]) -> dict:
    setup = setup + [run["setup_s"] for run in runs]
    values = {
        "wall_s": (statistics.median(run["wall_s"] for run in runs), f"{len(runs)} runs"),
        "setup_s": (statistics.median(setup), f"{len(setup)} launches"),
        "peak_rss_mib": (statistics.median(run["rss_mib"] for run in runs), f"{len(runs)} runs"),
    }
    claims = [t * 1e3 for run in runs for t in run["item_s"]]
    if workload == workloads.VERIFY_GRID and claims:
        # ungated: only this workload has enough items for a p99
        values["claim_p50_ms"] = (statistics.median(claims), f"{len(claims)} claim instances")
        values["claim_p99_ms"] = (statistics.quantiles(claims, n=100)[98],
                                  f"{len(claims)} claim instances")
    print(f"{'metric':<14} {'value':>14}  {'unit':<5} samples")
    for name, (value, samples) in values.items():
        unit = END_TO_END.get(name, "ms")
        gated = "" if name in END_TO_END else "  (ungated)"
        print(f"{name:<14} {value:>14.6g}  {unit:<5} {samples}{gated}")
    return {name: (values[name][0], unit) for name, unit in END_TO_END.items()}


def print_item_table(workload: str, spec: dict, runs: list[dict]) -> None:
    if any(run["errors"] for run in runs):
        return
    if workload == workloads.VERIFY_GRID:
        what = "per-claim time (sum of ClaimReport.elapsed)"
        per_item = {cid: statistics.median(run["claim_s"][cid] for run in runs)
                    for cid in runs[0]["claim_s"]}
    else:
        what = "per-item time"
        per_item = {workloads.item_key(workload, item): statistics.median(run["item_s"][k] for run in runs)
                    for k, item in enumerate(spec["items"])}
    print(f"{what}, s, median over {len(runs)} runs:")
    for name, seconds in sorted(per_item.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<32} {seconds:10.4f}")


def trace_metrics(runs: list[dict]) -> dict:
    plain, traced, counted = runs
    layers = dict(traced["layers"])
    layers.update(counted["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".s") and k != "other.s")
    print(f"traced wall {layers['trace.wall_s']:.4f} s = self times {self_total:.4f}"
          f" s + other.s {layers['other.s']:.4f} s; untraced wall {plain['wall_s']:.4f} s")
    print(f"{'layer metric':<40} {'value':>14}  unit")
    for name, unit in tracing.LAYER_METRICS.items():
        print(f"{name:<40} {layers[name]:>14.6g}  {unit}")
    return {name: (layers[name], unit) for name, unit in tracing.LAYER_METRICS.items()}


if __name__ == "__main__":
    sys.exit(main())
