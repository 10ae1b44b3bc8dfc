#!/usr/bin/env python3
"""detlint — the MABFuzz determinism linter.

The repo's load-bearing guarantee is that experiment and corpus artifacts
are byte-identical across 1/2/8 workers and save->load->save round trips
(docs/ARCHITECTURE.md "Reproducibility contract").  Runtime tests enforce that property after the fact; detlint
enforces the source-level invariants that make it true, so a stray
wall-clock read or unordered-container walk in an artifact path is caught
at lint time instead of as a flaky artifact diff.

Rules (see docs/STATIC_ANALYSIS.md for the full catalogue):

  nondet-source          no wall-clock / environment reads in artifact-path
                         files (the file set that feeds artifact emitters)
  unordered-container    no std::unordered_{map,set,...} in artifact-path
                         files: iteration order is unspecified
  rng-discipline         all randomness flows from common/rng per-trial
                         streams; <random> engines and distributions are
                         banned repo-wide (distributions are
                         implementation-defined => not reproducible)
  pragma-once            every header starts with #pragma once
  using-namespace-header no `using namespace` in headers

Suppressions:

  // detlint:allow(rule)        on the offending line, or alone on the
                                line directly above it
  // detlint:allow-file(rule)   anywhere in the file: whole-file waiver

Usage:

  tools/detlint.py [--root DIR] [paths...]   # default: src tests bench examples
  tools/detlint.py --list-rules

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Rule catalogue
# --------------------------------------------------------------------------

RULES = {
    "nondet-source":
        "wall-clock/environment read in an artifact-path file; artifacts "
        "must be byte-identical across runs (allow only for documented "
        "fields like elapsed_seconds)",
    "unordered-container":
        "unordered container in an artifact-path file; iteration order is "
        "unspecified and would leak into emitted artifacts",
    "rng-discipline":
        "randomness outside common/rng; every stochastic component must "
        "draw from a per-trial Xoshiro256StarStar stream "
        "(common::make_stream), and <random> distributions are "
        "implementation-defined",
    "pragma-once":
        "header does not start with #pragma once",
    "using-namespace-header":
        "`using namespace` in a header leaks into every includer",
}

# Files that feed the deterministic artifact emitters (experiment JSON/CSV,
# coverage curves, corpus serialization, BENCH_*.json).
# Nondeterminism in these files can silently change artifact bytes.
ARTIFACT_PATH_GLOBS = [
    "src/common/bytes.*",
    "src/common/json.*",
    "src/harness/campaign.*",
    "src/harness/experiment.*",
    "src/harness/curves.*",
    "src/harness/report.*",
    "src/harness/checkpoint.*",
    "src/harness/serve.*",
    "src/harness/service.*",
    "src/fuzz/corpus.*",
    "bench/*",
]

# The one module allowed to name raw generators: it *is* the RNG.
RNG_EXEMPT_GLOBS = ["src/common/rng.*"]

DEFAULT_SCAN_ROOTS = ["src", "tests", "bench", "examples"]
EXCLUDED_DIR_NAMES = {"lint_fixtures", "build"}
CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

# --------------------------------------------------------------------------
# Token tables
# --------------------------------------------------------------------------

NONDET_TOKENS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday"),
    (re.compile(r"\bclock_gettime\b"), "clock_gettime"),
    # Free-function time()/clock(): reject `time(` not preceded by an
    # identifier char, member access, or arrow (so elapsed_time(, x.time(
    # and t->time( stay legal).
    (re.compile(r"(?<![\w.>])time\s*\("), "time()"),
    (re.compile(r"(?<![\w.>])clock\s*\("), "clock()"),
    (re.compile(r"\bgetenv\b"), "getenv"),
    (re.compile(r"\b(?:localtime|gmtime|strftime|mktime)\b"),
     "calendar-time function"),
]

RNG_TOKENS = [
    (re.compile(r"\bstd::rand\b|(?<![\w.>])s?rand\s*\("), "C rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\bminstd_rand0?\b"), "std::minstd_rand"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"\branlux(?:24|48)\b"), "std::ranlux"),
    (re.compile(
        r"\b(?:uniform_int|uniform_real|normal|lognormal|bernoulli|poisson|"
        r"exponential|geometric|binomial|negative_binomial|gamma|weibull|"
        r"extreme_value|chi_squared|cauchy|fisher_f|student_t|discrete|"
        r"piecewise_constant|piecewise_linear)_distribution\b"),
     "<random> distribution (implementation-defined sequences)"),
    (re.compile(r"#\s*include\s*<random>"), "#include <random>"),
    (re.compile(r"\brandom_shuffle\b"), "std::random_shuffle"),
]

UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")
USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\b")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")

ALLOW_RE = re.compile(r"//\s*detlint:allow\(([^)]*)\)")
ALLOW_FILE_RE = re.compile(r"//\s*detlint:allow-file\(([^)]*)\)")


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _matches_any(relpath: str, globs: list[str]) -> bool:
    return any(fnmatch.fnmatch(relpath, g) for g in globs)


def _parse_rule_list(raw: str, path: str, line: int):
    rules = {r.strip() for r in raw.split(",") if r.strip()}
    unknown = rules - RULES.keys()
    if unknown:
        raise SystemExit(
            f"{path}:{line}: detlint suppression names unknown rule(s): "
            f"{', '.join(sorted(unknown))} (run --list-rules)")
    return rules


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Returns per-line code with comments and string/char literals blanked.

    Columns are preserved (replaced by spaces) so finding positions stay
    meaningful. Handles // and /* */ comments, "..." and '...' literals
    with escapes. Raw strings are treated as plain strings, which is fine
    for linting purposes.
    """
    out = []
    in_block = False
    for line in lines:
        buf = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif line.startswith("//", i):
                buf.append(" " * (n - i))
                break
            elif line.startswith("/*", i):
                in_block = True
                buf.append("  ")
                i += 2
            elif line[i] in "\"'":
                quote = line[i]
                buf.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                    elif line[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    else:
                        buf.append(" ")
                        i += 1
            else:
                buf.append(line[i])
                i += 1
        out.append("".join(buf))
    return out


class _Suppressions:
    """Parses detlint:allow / detlint:allow-file directives."""

    def __init__(self, path: str, lines: list[str], code: list[str]):
        self.file_rules: set = set()
        self.line_rules: dict = {}  # line number -> set of rules
        for idx, raw in enumerate(lines, start=1):
            m = ALLOW_FILE_RE.search(raw)
            if m:
                self.file_rules |= _parse_rule_list(m.group(1), path, idx)
            m = ALLOW_RE.search(raw)
            if m:
                rules = _parse_rule_list(m.group(1), path, idx)
                self.line_rules.setdefault(idx, set()).update(rules)
                # A directive alone on its line covers the next line.
                if code[idx - 1].strip() == "":
                    self.line_rules.setdefault(idx + 1, set()).update(rules)

    def active(self, line: int, rule: str) -> bool:
        return rule in self.file_rules or rule in self.line_rules.get(
            line, set())


def lint_file(relpath: str, text: str) -> list:
    """Lints one file; relpath is repo-relative with forward slashes."""
    relpath = relpath.replace("\\", "/")
    lines = text.splitlines()
    code = strip_comments_and_strings(lines)
    suppressions = _Suppressions(relpath, lines, code)
    findings = []

    def report(lineno: int, rule: str, detail: str):
        if not suppressions.active(lineno, rule):
            findings.append(Finding(relpath, lineno, rule, detail))

    is_header = relpath.endswith((".hpp", ".hh", ".h"))
    artifact_path = _matches_any(relpath, ARTIFACT_PATH_GLOBS)
    rng_exempt = _matches_any(relpath, RNG_EXEMPT_GLOBS)

    for lineno, cline in enumerate(code, start=1):
        if artifact_path:
            for token_re, name in NONDET_TOKENS:
                if token_re.search(cline):
                    report(lineno, "nondet-source",
                           f"{name}: {RULES['nondet-source']}")
            if UNORDERED_RE.search(cline):
                report(lineno, "unordered-container",
                       RULES["unordered-container"])
        if not rng_exempt:
            for token_re, name in RNG_TOKENS:
                if token_re.search(cline):
                    report(lineno, "rng-discipline",
                           f"{name}: {RULES['rng-discipline']}")
        if is_header and USING_NAMESPACE_RE.search(cline):
            report(lineno, "using-namespace-header",
                   RULES["using-namespace-header"])

    if is_header:
        first_code = next(
            ((i, c) for i, c in enumerate(code, start=1) if c.strip()),
            None)
        if first_code is None or not PRAGMA_ONCE_RE.match(first_code[1]):
            report(first_code[0] if first_code else 1, "pragma-once",
                   RULES["pragma-once"])

    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def iter_source_files(root: Path, paths: list[str]):
    targets = [root / p for p in paths] if paths else [
        root / p for p in DEFAULT_SCAN_ROOTS
    ]
    for target in targets:
        if target.is_file():
            yield target
            continue
        if not target.is_dir():
            continue
        for path in sorted(target.rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            if EXCLUDED_DIR_NAMES & set(path.relative_to(root).parts[:-1]):
                continue
            yield path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="detlint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent dir)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("paths", nargs="*",
                        help="files or directories relative to the root "
                             "(default: %s)" % " ".join(DEFAULT_SCAN_ROOTS))
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(f"{name}: {RULES[name]}")
        return 0

    root = Path(args.root) if args.root else Path(
        __file__).resolve().parent.parent
    if not root.is_dir():
        print(f"detlint: root {root} is not a directory", file=sys.stderr)
        return 2

    findings = []
    scanned = 0
    for path in iter_source_files(root, args.paths):
        scanned += 1
        relpath = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            print(f"detlint: {relpath}: not valid UTF-8", file=sys.stderr)
            return 2
        findings.extend(lint_file(relpath, text))

    for finding in findings:
        print(finding.render())
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"detlint: scanned {scanned} file(s): {status}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
