#!/usr/bin/env python3
"""Thread-safety annotation gate: positive/negative compile checks.

Clang's -Wthread-safety analysis only has teeth if (a) the annotated code
compiles cleanly and (b) a deliberately unguarded access is actually
rejected. This driver proves both against the shim in
src/common/thread_annotations.hpp:

  1. every header carrying annotations passes
     -fsyntax-only -Wthread-safety -Werror=thread-safety,
  2. tests/lint_corpus/thread_safety_positive.cpp compiles, and
  3. tests/lint_corpus/thread_safety_negative.cpp FAILS to compile with a
     thread-safety diagnostic (a clean build here means the analysis is
     silently off — that is the worst outcome, and it fails the gate).

Needs a clang++ (the analysis is Clang-only). Without one the check exits
77, which CTest maps to SKIPPED via SKIP_RETURN_CODE — the CI lint job
installs clang, so the gate always runs there.

Usage: check_thread_safety.py [--root DIR] [--clang PATH]
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

# Headers that carry BFTCUP_* annotations; each must analyze cleanly on
# its own (catches an annotation referencing a member the analysis cannot
# see long before the full CI build).
ANNOTATED_HEADERS = (
    "src/common/thread_annotations.hpp",
    "src/common/logging.hpp",
    "src/protocol/eval_cache.hpp",
    "src/crypto/sign_cache.hpp",
)

SKIP_EXIT_CODE = 77


def find_clang(explicit: str | None) -> str | None:
    candidates = [explicit] if explicit else []
    candidates += [f"clang++-{v}" for v in range(21, 13, -1)]
    candidates += ["clang++"]
    for name in candidates:
        if name and shutil.which(name):
            return name
    return None


def compile_cmd(clang: str, root: Path, source: Path) -> list[str]:
    return [
        clang,
        "-std=c++20",
        "-fsyntax-only",
        "-Wthread-safety",
        "-Werror=thread-safety",
        "-I",
        str(root / "src"),
        str(source),
    ]


def run(cmd: list[str]) -> subprocess.CompletedProcess[str]:
    return subprocess.run(cmd, capture_output=True, text=True, check=False)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--clang", help="clang++ binary to use")
    args = parser.parse_args()
    root = Path(args.root)

    clang = find_clang(args.clang)
    if clang is None:
        print(
            "check_thread_safety: no clang++ found; -Wthread-safety is "
            "Clang-only — skipping (exit 77)"
        )
        return SKIP_EXIT_CODE

    failures: list[str] = []

    for rel in ANNOTATED_HEADERS:
        header = root / rel
        result = run(
            compile_cmd(clang, root, header) + ["-x", "c++-header"]
        )
        if result.returncode != 0:
            failures.append(f"{rel} failed the annotated-header analysis:")
            failures.append(result.stderr.strip())
        else:
            print(f"ok   {rel}")

    positive = root / "tests/lint_corpus/thread_safety_positive.cpp"
    result = run(compile_cmd(clang, root, positive))
    if result.returncode != 0:
        failures.append(
            f"{positive.name} must compile under -Wthread-safety but did not:"
        )
        failures.append(result.stderr.strip())
    else:
        print(f"ok   {positive.name} (compiles)")

    negative = root / "tests/lint_corpus/thread_safety_negative.cpp"
    result = run(compile_cmd(clang, root, negative))
    if result.returncode == 0:
        failures.append(
            f"{negative.name} COMPILED: the thread-safety analysis is "
            "silently off (shim macros expanding to nothing under clang?)"
        )
    elif "thread-safety" not in result.stderr and "guarded by" not in result.stderr:
        failures.append(
            f"{negative.name} failed for the wrong reason (expected a "
            "thread-safety diagnostic):"
        )
        failures.append(result.stderr.strip())
    else:
        print(f"ok   {negative.name} (rejected with a thread-safety error)")

    if failures:
        print("\ncheck_thread_safety: FAILED", file=sys.stderr)
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1
    print(f"check_thread_safety: all checks passed with {clang}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
