#!/usr/bin/env python3
"""Records the benchmark's baseline sets into bench/e2e/baseline.json.

Runs every workload of BENCHMARK.json through run.py with --trace 0 once per
seed, in complete sets over the same seeds, then one --trace 1 run per
workload. For each set and metric it records every value, the median and
the spread (the distance between the first and third quartile of
statistics.quantiles(values, n=4), as a share of the median), and it checks
what the benchmark promises:

  * every spread except setup_s stays within the metric's bound;
  * no set's median is worse than the first set's by more than the bound;
  * the seed-determined metrics and the outputs_digest of each seed are
    identical in every set.

  python3 bench/e2e/record_baseline.py [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SEEDS = range(1, 11)
SETS = 2
# Functions of the seed alone: equal across sets, seed by seed.
SEED_DETERMINED = ("decide_ticks_p50", "decide_ticks_p99", "msgs_per_run",
                   "bytes_per_run", "decided_frac")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        for field in line.split():
            if field.startswith(("outputs_digest=", "nproc=", "compiler=")):
                key, value = field.split("=", 1)
                result[key] = value
    return result


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def check(sets: list[dict], bounds: dict) -> list[str]:
    """What the recorded sets break of the promises in the module doc."""
    problems = []
    for w, first in sets[0].items():
        for i, runs in enumerate(sets, start=1):
            later = runs[w]
            if later["outputs_digest"] != first["outputs_digest"]:
                problems.append(f"{w}: set {i} outputs_digest differs")
            for name, (bound, better) in bounds.items():
                m = later["metrics"][name]
                if name in SEED_DETERMINED and \
                        m["values"] != first["metrics"][name]["values"]:
                    problems.append(f"{w}: set {i} {name} differs")
                if name != "setup_s" and m["spread"] > bound:
                    problems.append(f"{w}: set {i} {name} spread "
                                    f"{m['spread']} > bound {bound}")
                base = first["metrics"][name]["median"]
                worse = (base - m["median"] if better == "higher"
                         else m["median"] - base)
                if worse > bound * base:
                    problems.append(f"{w}: set {i} {name} median worse by "
                                    f"{worse / base:.3f} > bound {bound}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()

    bench = check_output.load_benchmark(ROOT / "BENCHMARK.json")
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = list(SEEDS)
    workloads = [w["name"] for w in bench["workloads"]]
    sets: list[dict] = []
    host = ""
    for set_index in range(SETS):
        runs: dict = {}
        for w in workloads:
            results = [run(w, s, seconds, 0) for s in seeds]
            host = f"nproc={results[0]['nproc']} compiler={results[0]['compiler']}"
            metrics = {}
            for name in bounds:
                values = [r["metrics"][name]["value"] for r in results]
                med, spr = spread(values)
                metrics[name] = {"median": med, "spread": round(spr, 4),
                                 "values": values}
            runs[w] = {"outputs_digest": [r["outputs_digest"] for r in results],
                       "metrics": metrics}
            print(f"set {set_index + 1} {w}: done", file=sys.stderr, flush=True)
        sets.append(runs)
    traced = {w: {k: v["value"]
                  for k, v in run(w, seeds[0], seconds, 1)["metrics"].items()}
              for w in workloads}

    problems = check(sets, bounds)
    with open(args.out, "w") as f:
        json.dump({"host": host, "run_seconds": seconds, "seeds": seeds,
                   "sets": sets, "traced_seed1": traced, "problems": problems},
                  f, indent=1)
        f.write("\n")
    for w in workloads:
        for name in bounds:
            cells = "  ".join(f"{s[w]['metrics'][name]['median']:.6g} "
                              f"({s[w]['metrics'][name]['spread']:.3f})"
                              for s in sets)
            print(f"{w:22s} {name:18s} {cells}")
    for p in problems:
        print(f"PROBLEM {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
