#!/usr/bin/env python3
"""Benchmark of the fermatlab command-line interface.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/).
Every call is a fresh `python3 -m fermatlab ...` process, spawned and
waited for one at a time from this process: a closed loop with a single
client.  The workload's calls come in rounds of fixed make-up, drawn from
--seed; whole rounds run until the next one would end the run, set-up
included, after --seconds.
Every call's output is checked by checks.py, which never imports the
program.

The host is shared, and its speed drifts by a quarter within minutes.
So that two runs compare, every timing is scaled by a plain-Python
reference job timed beside it (reference.py), which no change to the
program can speed up or slow down:

--trace 0 reports the end-to-end metrics:
  work_per_s  units of work per second of call wall time (spawn to exit)
              on a host where the workload's reference job takes
              REFERENCE_S: all the run's work over all its call time,
              times the mean time of the reference job (timed before the
              first round and after every round) over REFERENCE_S
  setup_s     time to start an interpreter and import fermatlab.cli on a
              host where a bare interpreter starts in BARE_START_S: the
              median of (import start / bare start) times BARE_START_S,
              sampled before the first call and after every round, plus
              the workload's one-off preparation
--trace 1 runs the same calls through tracer.py and reports the
per-layer metrics, each the median over rounds of its per-round value.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 when the program's sources
are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from checks import Checker, default_audit_bases

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BENCHMARK = HERE.parent / "BENCHMARK.json"
SETUP_REPEATS = 5
IMPORT_CLI = ["-c", "import fermatlab.cli"]
BARE_START = ["-c", "pass"]
# typical bare interpreter start on the machine of the README
BARE_START_S = 0.055


@dataclass
class Call:
    argv: List[str]
    work: int
    # squarings a primality call cannot do without (None: not one)
    min_squarings: Optional[int] = None


@dataclass
class Outcome:
    call: Call
    wall: float
    trace: Optional[dict] = None


class Runner:
    """Spawns CLI calls one at a time, checks them and counts failures."""

    def __init__(self, root: Path, scratch: Path, checker: Checker,
                 trace_dir: Optional[Path] = None):
        self.root = root
        self.scratch = scratch
        self.checker = checker
        self.trace_dir = trace_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.calls = 0

    def spawn(self, pyargs: List[str]):
        """Run `python3 PYARGS`; return (wall seconds, exit code, stdout,
        peak resident set in KiB)."""
        out_path = self.scratch / "stdout"
        err_path = self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *pyargs], stdout=out,
                                    stderr=err, env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, proc.returncode, out_path.read_text("utf-8"),
                usage.ru_maxrss)

    def call(self, call: Call) -> Outcome:
        trace_path = None
        if self.trace_dir is None:
            pyargs = ["-m", "fermatlab", *call.argv]
        else:
            self.calls += 1
            trace_path = self.trace_dir / f"call-{self.calls:05d}.json"
            pyargs = [str(HERE / "tracer.py"), str(trace_path), *call.argv]
        wall, code, stdout, rss_kb = self.spawn(pyargs)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        self.record(call.argv, code, stdout)
        trace = None
        if trace_path is not None and trace_path.exists():
            trace = json.loads(trace_path.read_text("utf-8"))
        return Outcome(call, wall, trace)

    def record(self, argv: List[str], code: int, stdout: str) -> bool:
        """Check one call's output and count it; True when it is right."""
        self.attempted += 1
        problems = self.checker.problems(argv, code, stdout)
        if problems:
            self.failed += 1
            print(f"FAILED fermatlab {' '.join(argv)}: "
                  + "; ".join(problems[:5]), file=sys.stderr)
            err_path = self.scratch / "stderr"
            if err_path.exists():
                sys.stderr.write(err_path.read_text("utf-8")[-2000:])
        return not problems


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    # typical time of reference.py's job for this workload on the machine
    # of the README; it only sets the scale of work_per_s
    REFERENCE_S: float

    def __init__(self, rng: random.Random, scratch: Path):
        self.rng = rng
        self.scratch = scratch

    def prepare(self) -> None:
        """One-off preparation before the first call (timed in setup_s)."""

    def round(self, index: int) -> List[Call]:
        raise NotImplementedError


class PepinLarge(Workload):
    """Checkpointed slices of one `pepin 18` chain; work = squarings."""

    name = "pepin-large"
    REFERENCE_S = 0.55
    N = 18
    SLICE = 128

    def prepare(self):
        self.base = self.rng.choice((3, 5, 10))
        self.checkpoints = self.scratch / "checkpoints"
        self.checkpoints.mkdir(parents=True)

    def round(self, index):
        stop = (index + 1) * self.SLICE
        if stop >= (1 << self.N) - 1:
            raise RuntimeError("pepin-large ran past the end of the chain")
        return [Call(["pepin", str(self.N), "--base", str(self.base),
                      "--checkpoint-dir", str(self.checkpoints),
                      "--stop-after", str(stop)],
                     work=self.SLICE, min_squarings=self.SLICE)]


class AuditSweep(Workload):
    """`audit --n-range 5..12` with the default bases; work = rows."""

    name = "audit-sweep"
    REFERENCE_S = 0.8
    N_RANGE = range(5, 13)

    def round(self, index):
        bases = default_audit_bases()
        # 2^n squarings per (n, base), plus the base-3 primality chain of
        # 2^n - 1 squarings per n when base 3 is not audited
        minimum = sum(len(bases) * (1 << n) + (3 not in bases) * ((1 << n) - 1)
                      for n in self.N_RANGE)
        return [Call(["audit", "--n-range",
                      f"{self.N_RANGE[0]}..{self.N_RANGE[-1]}"],
                     work=len(self.N_RANGE) * len(bases),
                     min_squarings=minimum)]


class FactorScan(Workload):
    """Divisor scans whose k range holds a known factor; work = k values."""

    name = "factor-scan"
    REFERENCE_S = 0.38
    # (n, k_max, prime_filter); the k of the known factor in range is noted
    QUERIES = (
        (9, 40000, False),    # k = 1184
        (10, 30000, False),   # k = 11131
        (11, 30000, False),   # k = 39, 119
        (12, 20000, True),    # k = 7, 1588, 3892
        (15, 20000, False),   # k = 9264
        (16, 20000, True),    # k = 3150
        (18, 20000, False),   # k = 13
        (19, 40000, False),   # k = 33629
        (23, 10000, True),    # k = 5
    )

    def round(self, index):
        calls = [Call(["factor", str(n), "--k-max", str(k_max)]
                      + (["--prime-filter"] if prime_filter else []),
                      work=k_max)
                 for n, k_max, prime_filter in self.QUERIES]
        self.rng.shuffle(calls)
        return calls


class ShortQueries(Workload):
    """One classify and one order call per n in 8..12; work = calls."""

    name = "short-queries"
    REFERENCE_S = 0.53
    NS = range(8, 13)

    def prepare(self):
        # Base 2 (order n+1) and base 3 (the primality base, no second
        # chain) take shorter paths; drawing them would make the cost of
        # a round depend on the seed.
        self.bases = [b for b in default_audit_bases() if b not in (2, 3)]

    def round(self, index):
        calls = []
        for n in self.NS:
            base = self.rng.choice(self.bases)
            calls.append(Call(["classify", str(n), "--base", str(base)],
                              work=1,
                              min_squarings=(1 << n) + (1 << n) - 1))
            base = self.rng.choice(self.bases)
            calls.append(Call(["order", str(n), "--base", str(base)],
                              work=1))
        self.rng.shuffle(calls)
        return calls


WORKLOADS = {w.name: w for w in (PepinLarge, AuditSweep, FactorScan,
                                 ShortQueries)}


# ------------------------------------------------------------------ metrics


def trace_quantities(trace: dict) -> Counter:
    """Per-call layer quantities from one trace written by tracer.py."""
    records = [(sid, name, end - start, parent, 1)
               for sid, name, start, end, parent in trace["spans"]]
    records += [(aid, name, seconds, parent, calls)
                for aid, name, parent, calls, seconds in trace["aggregates"]]
    child_time: Dict[int, float] = defaultdict(float)
    mod_mul_time: Dict[int, float] = defaultdict(float)
    for _, name, duration, parent, _ in records:
        child_time[parent] += duration
        if name == "arith.mod_mul":
            mod_mul_time[parent] += duration
    q: Counter = Counter(trace["counts"])
    q["cli.import_s"] = trace["import_s"]
    for rid, name, duration, _, calls in records:
        own = duration - child_time[rid]
        q[name.split(".", 1)[0] + ".self_s"] += own
        if name == "cli.main":
            q["cli.call_s"] += duration
        elif name == "arith.mod_square_chain":
            q["arith.chain_self_s"] += own
        elif name == "arith.mod_mul":
            q["arith.mod_mul_calls"] += calls
        elif name == "orders.order_alpha":
            q["orders.loop_s"] += own + mod_mul_time[rid]
        elif name == "factors.lucas_search":
            q["factors.search_s"] += duration
        elif name == "factors.divides_fermat":
            q["factors.tests"] += calls
        elif name == "factors.cofactor":
            q["factors.cofactor_s"] += duration
        elif name == "oracle.is_probable_prime":
            q["oracle.prime_checks"] += calls
            q["oracle.prime_check_s"] += duration
        elif name == "checkpoint.load_checkpoint":
            q["checkpoint.loads"] += 1
            q["checkpoint.load_s"] += duration
        elif name == "checkpoint.save_checkpoint":
            q["checkpoint.saves"] += 1
            q["checkpoint.save_s"] += duration
        elif name == "checkpoint.CheckpointWriter.__call__":
            q["checkpoint.observer_calls"] += calls
            q["checkpoint.observer_s"] += own
        elif name.startswith("records.") and name.endswith("_record"):
            q["records.build_s"] += duration
        elif name == "records.dump":
            q["records.dump_s"] += duration
    return q


def _ratio(numerator: float, denominator: float, scale: float = 1.0):
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(outcomes: List[Outcome]) -> Dict[str, float]:
    """Per-layer values of one round; a layer the round never reaches
    reads 0."""
    q: Counter = Counter()
    useful = performed = 0
    for o in outcomes:
        call_q = trace_quantities(o.trace)
        q.update(call_q)
        if o.call.min_squarings is not None:
            useful += o.call.min_squarings
            performed += call_q["arith.squarings"]
    calls = len(outcomes)
    return {
        "cli.import_ms": _ratio(q["cli.import_s"], calls, 1e3),
        "cli.call_ms": _ratio(q["cli.call_s"], calls, 1e3),
        "arith.squarings": q["arith.squarings"],
        "arith.square_us": _ratio(q["arith.chain_self_s"],
                                  q["arith.squarings"], 1e6),
        "arith.mod_mul_calls": q["arith.mod_mul_calls"],
        "arith.self_s": q["arith.self_s"],
        "primality.self_s": q["primality.self_s"],
        "primality.chains": q["primality.chains"],
        "primality.useful_squaring_ratio": _ratio(useful, performed),
        "primality.prime_cache_hits": q["primality.prime_cache_hits"],
        "primality.prime_cache_misses": q["primality.prime_cache_misses"],
        "orders.squarings": q["orders.squarings"],
        "orders.square_us": _ratio(q["orders.loop_s"], q["orders.squarings"],
                                   1e6),
        "factors.candidates": q["factors.candidates"],
        "factors.tests": q["factors.tests"],
        "factors.candidate_us": _ratio(q["factors.search_s"],
                                       q["factors.candidates"], 1e6),
        "factors.cofactor_ms": q["factors.cofactor_s"] * 1e3,
        "oracle.prime_checks": q["oracle.prime_checks"],
        "oracle.prime_check_us": _ratio(q["oracle.prime_check_s"],
                                        q["oracle.prime_checks"], 1e6),
        "checkpoint.loads": q["checkpoint.loads"],
        "checkpoint.load_ms": q["checkpoint.load_s"] * 1e3,
        "checkpoint.saves": q["checkpoint.saves"],
        "checkpoint.save_ms": q["checkpoint.save_s"] * 1e3,
        "checkpoint.bytes": q["checkpoint.bytes"],
        "checkpoint.observer_us": _ratio(q["checkpoint.observer_s"],
                                         q["checkpoint.observer_calls"], 1e6),
        "records.build_ms": q["records.build_s"] * 1e3,
        "records.dump_ms": q["records.dump_s"] * 1e3,
        "records.bytes": q["records.bytes"],
    }


def round_rate(outcomes: List[Outcome]) -> float:
    return sum(o.call.work for o in outcomes) / sum(o.wall for o in outcomes)


def work_rate(rounds: List[List[Outcome]], references: List[float],
              reference_s: float) -> float:
    """The rounds' work over their call time, on a host where the
    reference job takes reference_s."""
    rate = round_rate([o for r in rounds for o in r])
    return rate * statistics.mean(references) / reference_s


# --------------------------------------------------------------------- main


def start_ratio(runner: Runner) -> float:
    """Wall time of a fresh interpreter that imports fermatlab.cli, over
    that of a bare interpreter started right after it."""
    return runner.spawn(IMPORT_CLI)[0] / runner.spawn(BARE_START)[0]


def reference_time(runner: Runner, name: str) -> float:
    """Wall time of reference.py's job for workload `name`."""
    wall, code, stdout, _ = runner.spawn(
        ["-I", str(HERE / "reference.py"), name])
    if code != 0 or not stdout.strip().isdigit():
        raise RuntimeError(f"reference job {name} failed (exit {code})")
    return wall


def run(root: Path, name: str, seed: int, seconds: float,
        trace: bool) -> dict:
    scratch = OUT / f"run-{name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    trace_dir = None
    if trace:
        trace_dir = OUT / f"trace-{name}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    begin = time.perf_counter()
    try:
        runner = Runner(root, scratch, Checker(seed), trace_dir)
        workload = WORKLOADS[name](random.Random(seed), scratch)
        start_ratio(runner)  # fills the bytecode cache, as users have one
        starts = [start_ratio(runner) for _ in range(SETUP_REPEATS)]
        t0 = time.perf_counter()
        workload.prepare()
        prepare_s = time.perf_counter() - t0
        rounds: List[List[Outcome]] = []
        references = [reference_time(runner, name)]
        start = time.perf_counter()
        while True:
            rounds.append([runner.call(c)
                           for c in workload.round(len(rounds))])
            references.append(reference_time(runner, name))
            # one more start-up sample per round, so that setup_s sees
            # the same stretch of machine time as work_per_s
            starts.append(start_ratio(runner))
            now = time.perf_counter()
            if now - begin + (now - start) / len(rounds) > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    rate = work_rate(rounds, references, workload.REFERENCE_S)
    if trace:
        per_round = [layer_metrics(r) for r in rounds]
        values = {m: statistics.median(r[m] for r in per_round)
                  for m in per_round[0]}
        values["process.peak_rss_mb"] = runner.peak_rss_kb / 1024
        values["trace.work_per_s"] = rate
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in json.loads(BENCHMARK.read_text("utf-8"))[
                       "per_layer"]}
    else:
        metrics = {
            "work_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": statistics.median(starts) * BARE_START_S
                        + prepare_s, "unit": "s"},
        }
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics,
            "round_rates": [round_rate(r) for r in rounds],
            "references": references}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fermatlab" / "cli.py").is_file():
        print(f"{root} holds no src/fermatlab: run from the root of a "
              "fermatlab source checkout", file=sys.stderr)
        return 2
    result = run(root, args.workload, args.seed, args.seconds,
                 bool(args.trace))
    rates = result.pop("round_rates")
    references = result.pop("references")
    print(f"{args.workload} seed={args.seed} rounds={len(rates)} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print("  work per second by round, as timed: "
          + " ".join(f"{rate:.4g}" for rate in rates))
    print("  reference job before round 1 and after each, s: "
          + " ".join(f"{t:.3f}" for t in references))
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
