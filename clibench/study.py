#!/usr/bin/env python3
"""Run every workload several times and report each metric's spread.

    python3 clibench/study.py [--runs 10] [--seconds 30] [--trace 0]
                              [--workloads a,b] [--first-seed 1]

Run from the root of a source checkout.  Each run is a separate
`python3 clibench/run.py` process with its own seed (first-seed, first-seed
+ 1, ...).  Runs go in passes over the workloads, and the order of the
workloads is reversed on every other pass, so that a slow spell of the
machine does not fall on one workload only.  For each workload and
metric it prints the median over runs and the spread, the distance
between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)).  The raw results go to
clibench/out/study-<time>.json.

--trace 0,1 makes every pass run each workload untraced and traced, in
alternating order, and prints the tracing overhead: one minus the median
over passes of traced work_per_s over untraced work_per_s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as bench


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(name: str, seed: int, seconds: int, trace: str) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    result["seed"] = seed
    result["run_wall_s"] = time.perf_counter() - t0
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", choices=("0", "1", "0,1"), default="0")
    ap.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    names = args.workloads.split(",")
    modes = args.trace.split(",")
    results = {f"{name} --trace {mode}": []
               for name in names for mode in modes}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = [(name, mode) for name in names for mode in modes]
        for name, mode in (order if i % 2 == 0 else order[::-1]):
            result = run_once(name, seed, args.seconds, mode)
            results[f"{name} --trace {mode}"].append(result)
            values = " ".join(f"{m}={e['value']:.6g}"
                              for m, e in result["metrics"].items()
                              if m in ("work_per_s", "setup_s",
                                       "trace.work_per_s"))
            print(f"run {i + 1} {name} --trace {mode} seed={seed} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} {values} "
                  f"wall={result['run_wall_s']:.1f}s", flush=True)
    print()
    for label, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{label}: {len(runs)} runs, {attempted} calls attempted, "
              f"{failed} failed")
        for metric, entry in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            line = f"  {metric:34s} median {median:12.6g} {entry['unit']:6s}"
            if len(values) >= 2 and median:
                line += f" spread {spread(values):7.2%}"
            print(line)
    if modes == ["0", "1"]:
        print()
        for name in names:
            ratios = [t["metrics"]["trace.work_per_s"]["value"]
                      / u["metrics"]["work_per_s"]["value"]
                      for u, t in zip(results[f"{name} --trace 0"],
                                      results[f"{name} --trace 1"])]
            print(f"{name}: tracing overhead "
                  f"{1 - statistics.median(ratios):.1%} of work_per_s "
                  f"(median of {len(ratios)} paired runs)")
    path = bench.OUT / f"study-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"\nraw results: {path.relative_to(Path.cwd())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
