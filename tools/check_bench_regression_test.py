#!/usr/bin/env python3
"""Self-test of check_bench_regression.py: writes synthetic baseline and
current BENCH files (ten gated events_per_sec rows of different
magnitudes) to a temporary directory and checks the gate's verdict on each
case at --tolerance 0.30.

Usage:
  check_bench_regression_test.py    # exit 0 iff every case gets its verdict
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

GATE = Path(__file__).resolve().parent / "check_bench_regression.py"
ROWS = 10
TOLERANCE = "0.30"

# (name, current/baseline ratio per row or None for "drop row 0",
#  expected to pass)
CASES: list[tuple[str, list[float] | None, bool]] = [
    # A speed-up of a minority of rows must not fail rows it never touched.
    ("four rows 2.5x, six rows 0.85x", [2.5] * 4 + [0.85] * 6, True),
    ("one row 0.6x", [0.6] + [1.0] * (ROWS - 1), False),
    ("three rows 0.65x", [0.65] * 3 + [1.0] * (ROWS - 3), False),
    # Indistinguishable from a slower machine: deliberately not flagged.
    ("every row 0.5x", [0.5] * ROWS, True),
    ("a gated row missing", None, False),
]


def results(ratios: list[float]) -> dict:
    return {
        "results": [
            {"workload": f"row{i}", "events_per_sec": 1000.0 * (i + 1) * r}
            for i, r in enumerate(ratios)
        ]
    }


def run_case(tmp: Path, ratios: list[float] | None) -> int:
    baseline = tmp / "baseline.json"
    current = tmp / "current.json"
    baseline.write_text(json.dumps(results([1.0] * ROWS)))
    if ratios is None:
        rows = results([1.0] * ROWS)
        rows["results"].pop(0)
        current.write_text(json.dumps(rows))
    else:
        current.write_text(json.dumps(results(ratios)))
    proc = subprocess.run(
        [sys.executable, str(GATE), str(baseline), str(current),
         "--tolerance", TOLERANCE],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, ratios, should_pass in CASES:
            code = run_case(Path(tmp), ratios)
            expected = 0 if should_pass else 1
            ok = code == expected
            failures += 0 if ok else 1
            verdict = "pass" if should_pass else "fail"
            print(f"{'ok' if ok else 'WRONG':6s} {name}: expected {verdict}, "
                  f"gate exited {code}")
    if failures:
        print(f"\n{failures} case(s) got the wrong verdict", file=sys.stderr)
        return 1
    print(f"\nall {len(CASES)} cases got their verdict")
    return 0


if __name__ == "__main__":
    sys.exit(main())
