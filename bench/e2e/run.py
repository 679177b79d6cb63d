#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (README.md in this directory).

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/e2e/run.py --smoke      # every workload, tiny passes, both modes
  python3 bench/e2e/run.py --self-test  # the harness's order-statistics checks

Run from anywhere inside the repository. The harness is built in Release
under $CARGO_TARGET_DIR/e2e (default .bench_build/e2e) before every run; a
build that is up to date costs about a second. Build output goes to stderr,
so the last line of stdout is the run's JSON result, which is checked
against BENCHMARK.json (check_output.py) before this script exits 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# A run measures for --seconds, plus set-up and one pass of overshoot; the
# harness is stopped well before a caller's three-minute limit.
RUN_TIMEOUT_S = 170


def build() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = (base if base.is_absolute() else ROOT / base) / "e2e"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", "e2e_bench"],
    ]
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "e2e_bench"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_once(binary: Path, bench: dict, args: argparse.Namespace, workload: str,
             trace: int, echo: bool) -> int:
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--commit", git_commit()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(result.stderr)
    (sys.stdout if echo else sys.stderr).write(result.stdout)
    if result.returncode != 0:
        print(f"run.py: harness exited {result.returncode}", file=sys.stderr)
        return result.returncode
    errors = check_output.check_result(result.stdout, bench, trace)
    for error in errors:
        print(f"run.py: {workload} --trace {trace}: {error}", file=sys.stderr)
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.smoke or args.self_test):
        parser.error("pass --workload, --smoke or --self-test")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([str(binary), "--self-test"]).returncode

    bench = check_output.load_benchmark(ROOT / "BENCHMARK.json")
    errors = check_output.check_benchmark(bench)
    if errors:
        print("run.py: BENCHMARK.json: " + "; ".join(errors), file=sys.stderr)
        return 1
    if not args.smoke:
        return run_once(binary, bench, args, args.workload, args.trace, echo=True)

    # Smoke: one tiny pass per workload and mode, to validate harness edits.
    args.seconds = 0
    status = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            t0 = time.monotonic()
            rc = run_once(binary, bench, args, w["name"], trace, echo=False)
            print(f"smoke {w['name']} --trace {trace}: "
                  f"{'ok' if rc == 0 else 'FAILED'} ({time.monotonic() - t0:.1f} s)")
            status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
