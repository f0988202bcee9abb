"""Command line: one run (the BENCHMARK.json contract) and the A/A check.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace T``
runs one workload once and prints one JSON object as its last line.
``python -m perfbench aa [--sets N] [--runs K] [--out FILE]`` runs N
full sets of the unchanged code — K seeds per workload, a set's value
being their median, as a comparison of two commits would take it — and
compares the sets with the benchmark's own bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from . import harness, loadgen
from .workloads import WORKLOADS


def run(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    measure = harness.traced if args.trace else harness.end_to_end
    result = measure(workload, args.seed, args.seconds)
    result.pop("invalid")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _commit() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def aa(args: argparse.Namespace) -> int:
    """Sets of runs of the same code, compared with the bounds."""
    listed = harness.catalog()
    seconds = listed["run_seconds"]
    bounds = {m["name"]: m for m in listed["end_to_end"]}
    stamp = dict(loadgen.environment(), commit=_commit(),
                 pinned=loadgen.pin_to_first_cpu() is not None,
                 started=time.strftime("%Y-%m-%dT%H:%M:%S"))
    runs: List[Dict[str, Any]] = []
    breaches: List[str] = []
    for number in range(args.sets):
        for name in WORKLOADS:
            for seed in range(args.seed, args.seed + args.runs):
                result = harness.end_to_end(WORKLOADS[name], seed, seconds)
                runs.append({
                    "set": number, "workload": name, "seed": seed,
                    "loadavg": os.getloadavg()[0],
                    "failed": result["failed"],
                    "invalid": result["invalid"],
                    "metrics": {metric: entry["value"] for metric, entry
                                in result["metrics"].items()}})
                if result["failed"] or result["invalid"]:
                    breaches.append(
                        f"set {number} {name} seed {seed}: "
                        f"{result['failed']} failed ops, "
                        f"invalid: {result['invalid'] or 'no'}")
    rows = []
    print(f"{'workload':<13}{'metric':<15}"
          + "".join(f"{f'set {n}':>11}" for n in range(args.sets))
          + f"{'max dev':>9}{'bound':>7}")
    for name in WORKLOADS:
        for metric, listed_metric in bounds.items():
            values = [statistics.median(
                entry["metrics"][metric] for entry in runs
                if entry["workload"] == name and entry["set"] == number)
                for number in range(args.sets)]
            middle = statistics.median(values)
            # Two sets: how far apart they are; more: the furthest any
            # set is from the median of sets.
            deviation = abs(values[1] - values[0]) / values[0] \
                if args.sets == 2 else \
                max(abs(value - middle) for value in values) / middle
            bound = listed_metric["bound"]
            rows.append({"workload": name, "metric": metric,
                         "values": values, "median": middle,
                         "max_deviation": deviation, "bound": bound})
            flag = ""
            if deviation > bound:
                flag = "  BREACH"
                breaches.append(f"{name} {metric}: sets differ by "
                                f"{deviation:.1%} (bound {bound:.0%})")
            elif 2 * deviation > bound:
                flag = "  (bound < 2 x deviation)"
            print(f"{name:<13}{metric:<15}"
                  + "".join(f"{value:>11.4f}" for value in values)
                  + f"{deviation:>9.1%}{bound:>7.0%}{flag}")
    for line in breaches:
        print(f"BREACH: {line}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"environment": stamp, "sets": args.sets,
                       "runs_per_set": args.runs, "first_seed": args.seed,
                       "run_seconds": seconds,
                       "runs": runs, "summary": rows,
                       "breaches": breaches}, handle, indent=1)
    return 1 if breaches else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["aa"]:
        parser = argparse.ArgumentParser(prog="perfbench aa")
        parser.add_argument("--sets", type=int, default=2)
        parser.add_argument("--runs", type=int, default=3)
        parser.add_argument("--seed", type=int, default=13)
        parser.add_argument("--out")
        return aa(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float,
                        default=harness.catalog()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    try:
        return run(parser.parse_args(argv))
    except harness.RunError as exc:
        harness.log(f"perfbench: {exc}")
        return 2
