#!/usr/bin/env python3
"""Output gate for the end-to-end benchmark (stdlib only).

Checks BENCHMARK.json against the benchmark's declaration rules, and, given
--trace, one harness run's stdout against BENCHMARK.json: its last line is a
JSON object with exactly the keys correct / attempted / failed / metrics,
and the metrics are exactly the declared end_to_end set (--trace 0) or
per_layer set (--trace 1), each a finite number with its declared unit. An
end-to-end metric must be non-zero; a traced run must have dropped no span
and must report the share of its wall time its spans cover.

Usage:
  check_output.py [--benchmark BENCHMARK.json]
  check_output.py --trace 0|1 [--benchmark BENCHMARK.json] [OUTPUT]

OUTPUT defaults to stdin. run.py applies the same checks to every run.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
BENCH_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
              "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
MAX_BOUND = 0.25


def is_number(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check_entries(bench: dict, key: str, fields: set[str], low: int, high: int,
                  errors: list[str]) -> list[dict]:
    entries = bench.get(key)
    if not isinstance(entries, list) or not low <= len(entries) <= high:
        errors.append(f"{key}: must be a list of {low} to {high} entries")
        return []
    good = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != fields:
            errors.append(f"{key}[{i}]: must have exactly {sorted(fields)}")
            continue
        if not isinstance(entry["name"], str) or not NAME.fullmatch(entry["name"]):
            errors.append(f"{key}[{i}]: bad name {entry['name']!r}")
        if "unit" in fields and (not isinstance(entry["unit"], str)
                                 or not UNIT.fullmatch(entry["unit"])):
            errors.append(f"{key}[{i}]: bad unit {entry['unit']!r}")
        if "better" in fields and entry["better"] not in ("higher", "lower"):
            errors.append(f"{key}[{i}]: better must be 'higher' or 'lower'")
        good.append(entry)
    return good


def check_benchmark(bench: Any) -> list[str]:
    """Violations of the declaration rules in BENCHMARK.json."""
    if not isinstance(bench, dict) or set(bench) != BENCH_KEYS:
        return [f"top level: must have exactly {sorted(BENCH_KEYS)}"]
    errors: list[str] = []
    command = bench["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(c, str) and len(c) <= 200 for c in command)):
        errors.append("command: must be 1 to 32 strings of at most 200 chars")
    paths = bench["paths"]
    if (not isinstance(paths, list) or not 1 <= len(paths) <= 16
            or not all(isinstance(p, str) and PATH.fullmatch(p)
                       and not p.startswith("/") and ".." not in p.split("/")
                       for p in paths)):
        errors.append("paths: must be 1 to 16 relative directory paths")
    seconds = bench["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) \
            or not 1 <= seconds <= 60:
        errors.append("run_seconds: must be a whole number from 1 to 60")

    workloads = check_entries(bench, "workloads", {"name", "why"}, 2, 8, errors)
    for w in workloads:
        if not isinstance(w["why"], str) or not 0 < len(w["why"]) <= 200 \
                or "\n" in w["why"]:
            errors.append(f"workload {w['name']}: why must be one line of <= 200")
    e2e = check_entries(bench, "end_to_end", {"name", "unit", "better", "bound"},
                        1, 16, errors)
    for m in e2e:
        if not is_number(m["bound"]) or not 0 <= m["bound"] <= MAX_BOUND:
            errors.append(f"metric {m['name']}: bound must be in [0, {MAX_BOUND}]")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in e2e):
        errors.append("end_to_end: needs setup_s in s, lower is better")
    layers = check_entries(bench, "per_layer", {"name", "unit", "better"}, 1, 128,
                           errors)
    names = [e["name"] for e in workloads + e2e + layers]
    for name in sorted({n for n in names if names.count(n) > 1}):
        errors.append(f"name {name!r} is used more than once")
    return errors


def declared(bench: dict, trace: int) -> dict[str, str]:
    """Metric name -> unit that a run with this --trace must report."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_result(stdout: str, bench: dict, trace: int) -> list[str]:
    """Violations in one harness run's stdout (its last line is the result)."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result: must have exactly {sorted(RESULT_KEYS)}"]
    errors: list[str] = []
    if result["correct"] is not True:
        errors.append("correct is not true")
    for key, low in (("attempted", 1), ("failed", 0)):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            errors.append(f"{key}: must be a whole number >= {low}")
    if result["failed"] != 0:
        errors.append(f"{result['failed']} run(s) failed")

    metrics = result["metrics"]
    want = declared(bench, trace)
    if not isinstance(metrics, dict):
        return errors + ["metrics: must be an object"]
    for name in sorted(set(want) - set(metrics)):
        errors.append(f"metric {name}: missing")
    for name in sorted(set(metrics) - set(want)):
        errors.append(f"metric {name}: not declared for --trace {trace}")
    for name, entry in metrics.items():
        if name not in want:
            continue
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            errors.append(f"metric {name}: must have exactly value and unit")
        elif not is_number(entry["value"]):
            errors.append(f"metric {name}: value must be a finite number")
        elif entry["unit"] != want[name]:
            errors.append(f"metric {name}: unit {entry['unit']!r}, declared "
                          f"{want[name]!r}")
        elif trace == 0 and entry["value"] == 0:
            errors.append(f"metric {name}: an end-to-end metric must not be 0")
    if errors or trace == 0:
        return errors
    if metrics["obs.spans_dropped"]["value"] != 0:
        errors.append("obs.spans_dropped: the traced run lost spans")
    if not 0 < metrics["obs.coverage_frac"]["value"] <= 1:
        errors.append("obs.coverage_frac: must be in (0, 1]")
    return errors


def load_benchmark(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("output", nargs="?", help="harness stdout (default: stdin)")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()

    bench = load_benchmark(Path(args.benchmark))
    errors = check_benchmark(bench)
    if not errors and args.trace is not None:
        if args.output is None:
            text = sys.stdin.read()
        else:
            with open(args.output) as f:
                text = f.read()
        errors = check_result(text, bench, args.trace)
    if errors:
        print(f"{len(errors)} violation(s):", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print("benchmark output OK" if args.trace is not None else "BENCHMARK.json OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
