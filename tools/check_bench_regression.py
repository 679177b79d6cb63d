#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh bench run against a checked-in
BENCH_*.json baseline and fail when throughput dropped beyond tolerance.

Rows are matched on their identity fields (workload / strategy / n / mode);
rows carrying `"gate": false` are reported but never enforced. The
compared metric is chosen per row:

  * speedup_vs_cold / speedup_vs_fresh — preferred when present
    (bench_membership, bench_runengine): both sides of the ratio were
    measured on the *same* machine, so the number is robust to
    runner-speed differences between the baseline machine and CI.
    Compared as-is.
  * events_per_sec / evals_per_sec — absolute throughput otherwise
    (bench_simcore, bench_scale). Absolute numbers are machine-dependent,
    so each row's current/baseline ratio is divided by the median ratio of
    the file's matched gated absolute rows before comparison: a uniformly
    slower CI runner cancels out, and so does a speed-up of a minority of
    rows, which leaves the median where the untouched rows are. One
    workload regressing relative to the others still trips the gate. (A
    perfectly uniform global slowdown is indistinguishable from a slower
    machine and is deliberately not flagged.)

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json [--tolerance 0.30]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any

Row = dict[str, Any]
RowKey = tuple[tuple[str, Any], ...]

IDENTITY_KEYS = ("workload", "strategy", "n", "mode")
RATIO_METRICS = ("speedup_vs_cold", "speedup_vs_fresh")
ABSOLUTE_METRICS = ("events_per_sec", "evals_per_sec")


def row_key(row: Row) -> RowKey:
    return tuple((k, row[k]) for k in IDENTITY_KEYS if k in row)


def metric_for(row: Row) -> str | None:
    for metric in RATIO_METRICS + ABSOLUTE_METRICS:
        if metric in row:
            return metric
    return None


def median_ratio(baseline_rows: list[Row], current_rows: dict[RowKey, Row]) -> float:
    """Median current/baseline ratio over the gated absolute-metric rows
    present in both files. 1.0 when there are none, or when the median is
    not positive (most rows read zero), so each row is then compared raw."""
    ratios: list[float] = []
    for base_row in baseline_rows:
        if base_row.get("gate", True) is False:
            continue
        metric = metric_for(base_row)
        if metric not in ABSOLUTE_METRICS:
            continue
        cur_row = current_rows.get(row_key(base_row))
        base_value = float(base_row[metric])
        if cur_row is None or base_value <= 0:
            continue
        ratios.append(float(cur_row.get(metric, 0.0)) / base_value)
    if not ratios:
        return 1.0
    median = statistics.median(ratios)
    return median if median > 0 else 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="maximum allowed fractional drop vs baseline (default 0.30)",
    )
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline_rows = json.load(f).get("results", [])
    with open(args.current) as f:
        current_rows_list = json.load(f).get("results", [])

    current_rows: dict[RowKey, Row] = {row_key(r): r for r in current_rows_list}
    speed = median_ratio(baseline_rows, current_rows)

    failures: list[str] = []
    checked = 0
    for base_row in baseline_rows:
        metric = metric_for(base_row)
        if metric is None:
            continue
        enforced = base_row.get("gate", True) is not False
        cur_row = current_rows.get(row_key(base_row))
        label = "/".join(str(base_row.get(k, "")) for k in IDENTITY_KEYS)
        if cur_row is None:
            if enforced:
                failures.append(f"missing row in current run: {label}")
            continue
        base_value = float(base_row[metric])
        cur_value = float(cur_row.get(metric, 0.0))
        if metric in ABSOLUTE_METRICS:
            cur_value /= speed
            shown_metric = f"{metric} (median-normalized)"
        else:
            shown_metric = metric
        if base_value <= 0:
            continue
        floor = base_value * (1.0 - args.tolerance)
        regressed = cur_value < floor
        if enforced:
            checked += 1
            status = "REGRESSION" if regressed else "ok"
        else:
            status = "info"
        print(
            f"{status:10s} {label:45s} {shown_metric}: "
            f"baseline={base_value:.3f} current={cur_value:.3f} "
            f"(floor={floor:.3f})"
        )
        if enforced and regressed:
            failures.append(
                f"{label}: {shown_metric} {cur_value:.3f} < floor "
                f"{floor:.3f} (baseline {base_value:.3f}, tolerance "
                f"{args.tolerance:.0%})"
            )

    if checked == 0:
        print("error: no gated rows found", file=sys.stderr)
        return 2
    if failures:
        print(f"\n{len(failures)} regression(s) vs {args.baseline}:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {checked} gated rows within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
