#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly, as two sets on the
same code, and say whether the sets agree within BENCHMARK.json's bounds.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --out steady.json

Each set runs every workload in BENCHMARK.json :data:`RUNS` times, each
run ``perfbench/run.py`` with its own ``--seed``; runs of set ``s`` take
seeds ``1000*s + 1 ...``, and workloads alternate within a set so that
a slow spell of the host falls on all of them.  For each set and
end-to-end metric the report gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  A set is steady when
every run is correct with no failed operation and every spread, that of
``setup_s`` included, stays within the metric's bound; two sets agree
when no median is worse than the first set's by more than the bound.
Every run's host facts (cores, load average, Python) are kept in
``--out``.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 180
SETS = 2
RUNS = 10


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    """One benchmark run; its result line plus the host line before it."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s seed %d exited %d:\n%s"
                           % (workload, seed, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["host"] = json.loads(lines[-2])["host"]
    result["seed"] = seed
    result["elapsed_s"] = time.monotonic() - start
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="", help="write every run as JSON here")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs: Dict[int, Dict[str, List[Dict[str, Any]]]] = {}
    for set_index in range(1, SETS + 1):
        runs[set_index] = {workload: [] for workload in workloads}
        for index in range(RUNS):
            seed = 1000 * set_index + index + 1
            for workload in workloads:
                result = run_once(workload, seed, bench["run_seconds"])
                runs[set_index][workload].append(result)
                print("set %d %-20s seed %5d  %s  load %.2f  took %.0fs" % (
                    set_index, workload, seed, "  ".join(
                        "%s %.4g" % (name, result["metrics"][name]["value"])
                        for name in metrics),
                    result["host"]["loadavg"][0], result["elapsed_s"]), flush=True)

    steady = True
    for workload in workloads:
        print("\n%s" % workload)
        medians: Dict[int, Dict[str, float]] = {}
        for set_index, by_workload in runs.items():
            results = by_workload[workload]
            if not all(r["correct"] and r["failed"] == 0 for r in results):
                print("  set %d: a run was incorrect or failed operations" % set_index)
                steady = False
            medians[set_index] = {}
            for name, metric in metrics.items():
                stats = summarize([r["metrics"][name]["value"] for r in results])
                medians[set_index][name] = stats["median"]
                within = stats["spread"] <= metric["bound"]
                steady &= within
                print("  set %d %-13s median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %6.2f%% (bound %4.1f%%)%s" % (
                          set_index, name, stats["median"], stats["q1"], stats["q3"],
                          100 * stats["spread"], 100 * metric["bound"],
                          "" if within else "  SPREAD TOO WIDE"))
        for name, metric in metrics.items():
            worse = worse_by(medians[1][name], medians[2][name], metric["better"])
            agree = worse <= metric["bound"]
            steady &= agree
            print("  %-13s set 2 vs set 1: %+6.2f%% worse (bound %4.1f%%) %s" % (
                name, 100 * worse, 100 * metric["bound"],
                "agree" if agree else "DISAGREE"))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs, handle, indent=1)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
