#!/usr/bin/env python3
"""cup_lint: repo-specific determinism and soundness linter for src/.

The whole reproduction rests on bit-replay determinism (the golden digest
corpus, fresh==recycled property suites, pooled-vs-serial sweeps). These
invariants are enforced dynamically by tests; cup_lint enforces the coding
rules that make them hold *statically*, before a nondeterministic container
walk or an ambient entropy source ever reaches a replay test.

Rules (each finding names its rule id):

  R1 unordered-iteration
     No range-for iteration over std::unordered_map / std::unordered_set
     (or their pmr / multi variants) in any digest-path module — the files
     that compute RunReport::digest(), trace records, or the explorer's
     coverage signatures. Hash-table iteration order is implementation- and
     address-dependent, so a single walk silently breaks bit replay.
     Allowlist: `// cup-lint: ordered-ok(<why the order cannot leak>)`.

  R2 nondeterministic-source
     No ambient entropy or wall-clock sources anywhere in src/ outside
     sim::Rng (src/common/random.*): rand/srand, std::random_device,
     mt19937 engines, time()/clock(), chrono clock ::now(), and std::hash
     over pointer types (address-dependent keys). Allowlist:
     `// cup-lint: rng-ok(<why this cannot reach a replayed path>)`.

  R3 digest-field-classification
     Every field of RunReport must be *explicitly* classified: either it is
     serialized by RunReport::digest(), or its declaration carries
     `// cup-lint: digest-excluded(<why>)`. A field that is both hashed and
     marked excluded is a contradiction and also fails. Every field of
     RunRecord must appear in both BatchReport::runs_csv() and
     BatchReport::to_json() so reports keep round-tripping.

  R4 reinterpret-cast
     No reinterpret_cast outside the audited allowlist (src/codec/), where
     byte-level framing legitimately needs it. Elsewhere:
     `// cup-lint: cast-ok(<why this cannot be UB>)`.

Markers require a non-empty justification; an empty one is itself a
finding (M1). A marker comment applies to its own line, or — on a
comment-only line — to the next code line.

Static path analysis is deliberately out of scope: R1 approximates "feeds a
digest" at module granularity via DIGEST_PATH_MODULES below, and
`--report` emits the full container inventory of those modules
(tools/lint_report.json, diffed in CI) so every new container on a
digest-feeding path shows up in review even when it is ordered.

Usage:
  cup_lint.py [--root DIR]                 # lint src/, exit 1 on findings
  cup_lint.py --report FILE                # also write the JSON inventory
  cup_lint.py --check-report FILE          # fail if inventory drifted
  cup_lint.py --self-test DIR              # run the lint_corpus fixtures
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Any

# Modules whose code feeds RunReport::digest(), trace records, or coverage
# signatures. R1 fires only here; --report inventories containers here.
DIGEST_PATH_MODULES = (
    # The blocked-bitset kernels back membership probes inside candidate
    # enumeration — their containers feed digest-visible iteration order.
    "src/common/bitset64.hpp",
    "src/cup/runner.hpp",
    "src/cup/runner.cpp",
    "src/cup/batch_runner.hpp",
    "src/cup/batch_runner.cpp",
    # Membership: RunReport::digest() hashes the memberships nodes adopt,
    # and candidate order in the search, the predicate and the core rule
    # decides which one that is. The eval memo's hash maps are probed by
    # key, never walked.
    "src/protocol/knowledge_view.hpp",
    "src/protocol/knowledge_view.cpp",
    "src/protocol/sink_predicate.hpp",
    "src/protocol/sink_predicate.cpp",
    "src/protocol/sink_search.hpp",
    "src/protocol/sink_search.cpp",
    "src/protocol/sink.hpp",
    "src/protocol/sink.cpp",
    "src/protocol/core.hpp",
    "src/protocol/core.cpp",
    "src/protocol/eval_cache.hpp",
    "src/protocol/eval_cache.cpp",
    # The observability layer rides on digest-path runs: registries iterate
    # for snapshots and the tracer/export order must be replayable, so its
    # containers stay in the inventory and under R1.
    "src/obs/metrics.hpp",
    "src/obs/metrics.cpp",
    "src/obs/span_tracer.hpp",
    "src/obs/span_tracer.cpp",
    "src/obs/trace_export.hpp",
    "src/obs/trace_export.cpp",
    "src/sim/trace.hpp",
    "src/sim/trace.cpp",
    "src/explore/coverage.hpp",
    "src/explore/coverage.cpp",
    "src/explore/genome.hpp",
    "src/explore/genome.cpp",
)

# R2 never fires here: this *is* the audited entropy seam (sim::Rng).
RNG_ALLOWED_FILES = (
    "src/common/random.hpp",
    "src/common/random.cpp",
)

# R4 never fires here: byte-level codecs.
CAST_ALLOWED_PREFIXES = ("src/codec/",)

UNORDERED_TYPES = (
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
)

# Container spellings inventoried by --report, with their ordering verdict.
# A std:: spelling also matches its polymorphic-allocator twin in the nested
# pmr namespace (see spelling_pattern).
ORDERED_CONTAINERS = (
    "std::map",
    "std::multimap",
    "std::set",
    "std::multiset",
    "std::array",
    "std::vector",
    "std::deque",
    "FlatMap",
    "FlatSet",
    "IdSet",
    # Blocked bitsets iterate ascending (for_each_set) — ordered containers
    # in the replay-determinism sense, like the FlatSet they can stand in for.
    "BitSet",
)

MARKER_RE = re.compile(
    r"cup-lint:\s*(ordered-ok|rng-ok|cast-ok|digest-excluded)\s*\(([^)]*)\)"
)
EXPECT_RE = re.compile(r"cup-lint-expect:\s*([A-Z]\d[\w-]*)")

R2_PATTERNS: tuple[tuple[re.Pattern[str], str], ...] = (
    (re.compile(r"(?<![\w.>])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "mt19937 engine outside sim::Rng"),
    (re.compile(r"\bdefault_random_engine\b"), "default_random_engine"),
    (re.compile(r"(?<![\w.>])time\s*\("), "wall-clock time()"),
    (re.compile(r"(?<![\w.>])clock\s*\("), "clock()"),
    (
        re.compile(
            r"\b(system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b"
        ),
        "chrono clock ::now()",
    ),
    (re.compile(r"std::hash\s*<[^<>]*\*"), "std::hash over a pointer type"),
)


class Finding:
    def __init__(self, rule: str, file: str, line: int, message: str) -> None:
        self.rule = rule
        self.file = file
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """One scanned file, split into per-line code and comment text.

    The splitter understands //, /* */, string and char literals; that is
    enough for this codebase and keeps the tool dependency-free. Markers
    live in the comment channel, rule tokens are matched against the code
    channel, so a rule named in prose never trips its own linter.
    """

    def __init__(self, path: Path, rel: str) -> None:
        self.path = path
        self.rel = rel
        text = path.read_text(encoding="utf-8", errors="replace")
        self.code_lines: list[str] = []
        self.comment_lines: list[str] = []
        self._split(text)
        # marker kind -> set of covered line numbers (1-based)
        self.markers: dict[str, set[int]] = {}
        self.marker_errors: list[Finding] = []
        self.expected_rules: set[str] = set()
        self._collect_markers()

    def _split(self, text: str) -> None:
        code: list[str] = []
        comment: list[str] = []
        i, n = 0, len(text)
        in_block = False
        in_line = False
        in_str: str | None = None
        cur_code: list[str] = []
        cur_comment: list[str] = []
        while i < n:
            c = text[i]
            nxt = text[i + 1] if i + 1 < n else ""
            if c == "\n":
                code.append("".join(cur_code))
                comment.append("".join(cur_comment))
                cur_code, cur_comment = [], []
                in_line = False
                i += 1
                continue
            if in_line:
                cur_comment.append(c)
                i += 1
                continue
            if in_block:
                if c == "*" and nxt == "/":
                    in_block = False
                    i += 2
                else:
                    cur_comment.append(c)
                    i += 1
                continue
            if in_str is not None:
                cur_code.append(" ")  # blank out literal contents
                if c == "\\":
                    i += 2
                    continue
                if c == in_str:
                    in_str = None
                i += 1
                continue
            if c == "/" and nxt == "/":
                in_line = True
                i += 2
                continue
            if c == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                in_str = c
                cur_code.append(c)
                i += 1
                continue
            cur_code.append(c)
            i += 1
        if cur_code or cur_comment:
            code.append("".join(cur_code))
            comment.append("".join(cur_comment))
        self.code_lines = code
        self.comment_lines = comment

    def _collect_markers(self) -> None:
        pending: list[tuple[str, int]] = []  # markers waiting for a code line
        for lineno, (code, comment) in enumerate(
            zip(self.code_lines, self.comment_lines), start=1
        ):
            for match in EXPECT_RE.finditer(comment):
                self.expected_rules.add(match.group(1))
            line_markers: list[str] = []
            for match in MARKER_RE.finditer(comment):
                kind, why = match.group(1), match.group(2).strip()
                if not why:
                    self.marker_errors.append(
                        Finding(
                            "M1",
                            self.rel,
                            lineno,
                            f"cup-lint marker '{kind}' needs a justification "
                            "inside the parentheses",
                        )
                    )
                    continue
                line_markers.append(kind)
            if not line_markers:
                continue
            if code.strip():
                for kind in line_markers:
                    self.markers.setdefault(kind, set()).add(lineno)
            else:
                for kind in line_markers:
                    pending.append((kind, lineno))
                continue
        # A marker on a comment-only line covers the next code line.
        if pending:
            for kind, marker_line in pending:
                for lineno in range(marker_line + 1, len(self.code_lines) + 1):
                    if self.code_lines[lineno - 1].strip():
                        self.markers.setdefault(kind, set()).add(lineno)
                        break

    def allowlisted(self, kind: str, lineno: int) -> bool:
        return lineno in self.markers.get(kind, set())

    @property
    def code_text(self) -> str:
        return "\n".join(self.code_lines)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# --------------------------------------------------------------- parsing ---


def extract_block(text: str, head_re: re.Pattern[str]) -> tuple[str, int] | None:
    """Body of the first `head { ... }` block, with the body's start offset."""
    match = head_re.search(text)
    if match is None:
        return None
    brace = text.find("{", match.end() - 1)
    if brace < 0:
        return None
    depth = 0
    for i in range(brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[brace + 1 : i], brace + 1
    return None


FIELD_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:=[^;,]*|\{[^;]*\})?\s*;\s*$")


def struct_fields(
    source: SourceFile, struct_name: str
) -> list[tuple[str, int]] | None:
    """(field, lineno) pairs for `struct <name>`; None when not declared."""
    text = source.code_text
    block = extract_block(
        text, re.compile(r"\bstruct\s+" + struct_name + r"\s*\{")
    )
    if block is None:
        return None
    body, offset = block
    fields: list[tuple[str, int]] = []
    # Walk the body statement-by-statement at brace depth 0 so method
    # bodies and nested types contribute nothing.
    depth = 0
    for rel_line, raw in enumerate(body.split("\n")):
        line = raw.strip()
        opens, closes = raw.count("{"), raw.count("}")
        at_top = depth == 0
        depth += opens - closes
        if not at_top or not line:
            continue
        if "(" in line or line.startswith(
            ("using ", "friend ", "static ", "typedef ", "struct ", "enum ")
        ):
            continue
        match = FIELD_RE.search(line)
        if match is None:
            continue
        fields.append(
            (match.group(1), line_of(text, offset) + rel_line)
        )
    return fields


def function_body(
    files: list[SourceFile], head_pattern: str
) -> tuple[SourceFile, str] | None:
    head_re = re.compile(head_pattern)
    for source in files:
        block = extract_block(source.code_text, head_re)
        if block is not None:
            return source, block[0]
    return None


def find_struct(
    files: list[SourceFile], name: str
) -> tuple[SourceFile, list[tuple[str, int]]] | None:
    for source in files:
        fields = struct_fields(source, name)
        if fields is not None:
            return source, fields
    return None


# ----------------------------------------------------------------- rules ---


def unordered_variables(files: list[SourceFile]) -> set[str]:
    """Names declared with an unordered container type anywhere in scope."""
    decl_re = re.compile(
        r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*\n?\s*"
        r"([A-Za-z_]\w*)\s*(?:;|=|\{)",
        re.S,
    )
    names: set[str] = set()
    for source in files:
        for match in decl_re.finditer(source.code_text):
            names.add(match.group(1))
    return names


def check_r1(
    source: SourceFile, unordered_names: set[str], findings: list[Finding]
) -> None:
    text = source.code_text
    for_re = re.compile(r"\bfor\s*\(([^;()]*?):([^;]*?)\)\s*\{?", re.S)
    for match in for_re.finditer(text):
        range_expr = match.group(2).strip()
        lineno = line_of(text, match.start())
        base = re.match(r"[A-Za-z_]\w*", range_expr)
        hits_unordered = "unordered_" in range_expr or (
            base is not None and base.group(0) in unordered_names
        )
        # `x.second`, `view.members()` etc.: also resolve one member hop.
        if not hits_unordered:
            member = re.match(r"[A-Za-z_]\w*(?:\.|->)([A-Za-z_]\w*)", range_expr)
            hits_unordered = (
                member is not None and member.group(1) in unordered_names
            )
        if not hits_unordered:
            continue
        if source.allowlisted("ordered-ok", lineno):
            continue
        findings.append(
            Finding(
                "R1",
                source.rel,
                lineno,
                f"iteration over unordered container '{range_expr}' in a "
                "digest-path module; hash-table order is not replayable "
                "(use an ordered container or justify with "
                "// cup-lint: ordered-ok(...))",
            )
        )


def check_r2(source: SourceFile, findings: list[Finding]) -> None:
    if source.rel in RNG_ALLOWED_FILES:
        return
    for lineno, code in enumerate(source.code_lines, start=1):
        for pattern, label in R2_PATTERNS:
            if pattern.search(code) is None:
                continue
            if source.allowlisted("rng-ok", lineno):
                continue
            findings.append(
                Finding(
                    "R2",
                    source.rel,
                    lineno,
                    f"nondeterministic source: {label}; all randomness must "
                    "flow through sim::Rng (or justify with "
                    "// cup-lint: rng-ok(...))",
                )
            )


def check_r3(files: list[SourceFile], findings: list[Finding]) -> None:
    report = find_struct(files, "RunReport")
    if report is not None:
        source, fields = report
        digest = function_body(
            files, r"RunReport\s*::\s*digest\s*\(\s*\)\s*const"
        )
        if digest is None:
            findings.append(
                Finding(
                    "R3",
                    source.rel,
                    1,
                    "struct RunReport is declared but RunReport::digest() "
                    "was not found in the scanned set",
                )
            )
        else:
            digest_tokens = set(re.findall(r"[A-Za-z_]\w*", digest[1]))
            for name, lineno in fields:
                hashed = name in digest_tokens
                excluded = source.allowlisted("digest-excluded", lineno)
                # Obs clause: observability state (any obs:: typed field)
                # must never enter the digest — wall times and metric
                # placement vary run to run, and hashing them would break
                # the bit-replay contract the layer is built around.
                declaration = source.code_lines[lineno - 1]
                if "obs::" in declaration:
                    if hashed:
                        findings.append(
                            Finding(
                                "R3",
                                source.rel,
                                lineno,
                                f"RunReport::{name} is observability state "
                                "(obs::) serialized by digest() — "
                                "observability state must never enter the "
                                "digest",
                            )
                        )
                        continue
                    if not excluded:
                        findings.append(
                            Finding(
                                "R3",
                                source.rel,
                                lineno,
                                f"RunReport::{name} is observability state "
                                "(obs::): mark it // cup-lint: "
                                "digest-excluded(<why>) to record the "
                                "contract",
                            )
                        )
                    continue
                if hashed and excluded:
                    findings.append(
                        Finding(
                            "R3",
                            source.rel,
                            lineno,
                            f"RunReport::{name} is serialized by digest() but "
                            "marked digest-excluded — contradiction",
                        )
                    )
                elif not hashed and not excluded:
                    findings.append(
                        Finding(
                            "R3",
                            source.rel,
                            lineno,
                            f"RunReport::{name} is unclassified: hash it in "
                            "digest() or mark it "
                            "// cup-lint: digest-excluded(<why>)",
                        )
                    )
    record = find_struct(files, "RunRecord")
    if record is not None:
        source, fields = record
        for fn, label in (
            (r"\bruns_csv\s*\(\s*\)\s*const", "runs_csv()"),
            (r"\bto_json\s*\(\s*\)\s*const", "to_json()"),
        ):
            body = function_body(files, fn)
            if body is None:
                findings.append(
                    Finding(
                        "R3",
                        source.rel,
                        1,
                        f"struct RunRecord is declared but {label} was not "
                        "found in the scanned set",
                    )
                )
                continue
            emitted = set(re.findall(r"[A-Za-z_]\w*", body[1]))
            for name, lineno in fields:
                if name not in emitted:
                    findings.append(
                        Finding(
                            "R3",
                            source.rel,
                            lineno,
                            f"RunRecord::{name} does not round-trip: it is "
                            f"missing from BatchReport::{label}",
                        )
                    )


def check_r4(source: SourceFile, findings: list[Finding]) -> None:
    if any(source.rel.startswith(p) for p in CAST_ALLOWED_PREFIXES):
        return
    for lineno, code in enumerate(source.code_lines, start=1):
        if "reinterpret_cast" not in code:
            continue
        if source.allowlisted("cast-ok", lineno):
            continue
        findings.append(
            Finding(
                "R4",
                source.rel,
                lineno,
                "reinterpret_cast outside the audited codec/ allowlist "
                "(use memcpy/std::launder, or justify with "
                "// cup-lint: cast-ok(...))",
            )
        )


def lint(
    files: list[SourceFile], digest_modules: set[str] | None
) -> list[Finding]:
    """All findings over `files`. `digest_modules` = None treats every file
    as digest-path (the self-test mode); otherwise only listed files get R1.
    """
    findings: list[Finding] = []
    unordered_names = unordered_variables(files)
    for source in files:
        findings.extend(source.marker_errors)
        if digest_modules is None or source.rel in digest_modules:
            check_r1(source, unordered_names, findings)
        check_r2(source, findings)
        check_r4(source, findings)
    check_r3(files, findings)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings


# ---------------------------------------------------------------- report ---


def spelling_pattern(spelling: str) -> str:
    """Regex for a container spelling; a std:: spelling also matches its
    twin in the nested pmr namespace."""
    if spelling.startswith("std::"):
        return r"std::(?:pmr::)?" + re.escape(spelling[len("std::"):])
    return re.escape(spelling)


def container_inventory(files: list[SourceFile]) -> list[dict[str, Any]]:
    """Every container declaration in the digest-path modules."""
    spellings: list[tuple[str, bool]] = [(t, True) for t in ORDERED_CONTAINERS]
    spellings += [(f"std::{t}", False) for t in UNORDERED_TYPES]
    # `(` is accepted as an initializer so pre-sized slot vectors —
    # `std::vector<T> slots(n);`, the index-addressed form a parallel
    # reduction needs to stay deterministic — are inventoried too.
    decl_res = [
        (
            re.compile(
                spelling_pattern(spelling)
                + r"\s*<[^;]*?>\s*\n?\s*([A-Za-z_]\w*)\s*(?:;|=|\{|\()",
                re.S,
            ),
            spelling,
            ordered,
        )
        for spelling, ordered in spellings
    ]
    # Ordered aliases that appear without template arguments. IdSet is a
    # sorted FlatSet; MsgHistogram is a std::array indexed by MsgType — both
    # iterate in a replayable order by construction.
    decl_res += [
        (
            re.compile(r"\bIdSet\s+([A-Za-z_]\w*)\s*(?:;|=|\{)"),
            "IdSet",
            True,
        ),
        (
            re.compile(
                r"\bMsgHistogram\s+([A-Za-z_]\w*)\s*(?:;|=|\{)"
            ),
            "MsgHistogram (std::array)",
            True,
        ),
    ]
    rows: list[dict[str, Any]] = []
    seen: set[tuple[str, int, str]] = set()
    for source in files:
        text = source.code_text
        for decl_re, spelling, ordered in decl_res:
            for match in decl_re.finditer(text):
                name = match.group(1)
                lineno = line_of(text, match.start())
                key = (source.rel, lineno, name)
                if key in seen:
                    continue
                seen.add(key)
                rows.append(
                    {
                        "file": source.rel,
                        "line": lineno,
                        "name": name,
                        "type": spelling,
                        "ordered": ordered,
                        "allowlisted": source.allowlisted(
                            "ordered-ok", lineno
                        ),
                    }
                )
    rows.sort(key=lambda r: (r["file"], r["line"], r["name"]))
    return rows


def render_report(files: list[SourceFile]) -> str:
    payload = {
        "version": 1,
        "digest_path_modules": list(DIGEST_PATH_MODULES),
        "containers": container_inventory(
            [f for f in files if f.rel in DIGEST_PATH_MODULES]
        ),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -------------------------------------------------------------- self-test ---


def self_test(corpus: Path) -> int:
    """Each *.bad.* fixture must fire exactly its expected rule set; each
    *.good.* twin must be clean. Fixture expectations are `cup-lint-expect:`
    comment lines inside the bad file."""
    failures: list[str] = []
    fixtures = sorted(
        p
        for p in corpus.iterdir()
        if p.suffix in (".cpp", ".hpp") and (".bad." in p.name or ".good." in p.name)
    )
    if not fixtures:
        print(f"self-test: no fixtures found under {corpus}", file=sys.stderr)
        return 2
    for path in fixtures:
        source = SourceFile(path, path.name)
        findings = lint([source], digest_modules=None)
        fired = {f.rule for f in findings}
        if ".bad." in path.name:
            expected = source.expected_rules
            if not expected:
                failures.append(
                    f"{path.name}: bad fixture declares no cup-lint-expect"
                )
            elif fired != expected:
                failures.append(
                    f"{path.name}: expected rules {sorted(expected)}, "
                    f"fired {sorted(fired)}"
                )
                for finding in findings:
                    print(f"  {finding}")
        else:
            if findings:
                failures.append(
                    f"{path.name}: good fixture should be clean, fired "
                    f"{sorted(fired)}"
                )
                for finding in findings:
                    print(f"  {finding}")
    checked = len(fixtures)
    if failures:
        print(f"self-test: {len(failures)} failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"self-test: all {checked} fixtures behaved as expected")
    return 0


# ------------------------------------------------------------------ main ---


def load_sources(root: Path) -> list[SourceFile]:
    files: list[SourceFile] = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".hpp", ".cpp", ".h", ".cc"):
            files.append(SourceFile(path, path.relative_to(root).as_posix()))
    return files


def main() -> int:
    parser = argparse.ArgumentParser(
        description="repo-specific determinism linter (see module docstring)"
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root containing src/ (default: cwd)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="write the digest-path container inventory JSON to FILE",
    )
    parser.add_argument(
        "--check-report",
        metavar="FILE",
        help="fail when FILE differs from the freshly generated inventory",
    )
    parser.add_argument(
        "--self-test",
        metavar="DIR",
        help="run the fixture corpus under DIR instead of linting src/",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test(Path(args.self_test))

    root = Path(args.root)
    if not (root / "src").is_dir():
        print(f"error: {root}/src is not a directory", file=sys.stderr)
        return 2
    files = load_sources(root)

    if args.report or args.check_report:
        report = render_report(files)
        if args.report:
            Path(args.report).write_text(report, encoding="utf-8")
            print(f"report: wrote {args.report}")
        if args.check_report:
            on_disk = Path(args.check_report).read_text(encoding="utf-8")
            if on_disk != report:
                print(
                    f"error: {args.check_report} is stale — regenerate with "
                    f"cup_lint.py --report {args.check_report} and review the "
                    "diff (a new container on a digest-feeding path needs "
                    "eyes)",
                    file=sys.stderr,
                )
                return 1
            print(f"report: {args.check_report} is current")

    findings = lint(files, digest_modules=set(DIGEST_PATH_MODULES))
    for finding in findings:
        print(finding)
    if findings:
        print(f"\ncup_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"cup_lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
