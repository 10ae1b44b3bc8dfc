#!/usr/bin/env python3
"""Golden-fixture tests for tools/detlint.py.

Every file under tests/lint_fixtures/ is linted against the virtual repo
path named by its `// detlint-path:` directive (so artifact-path and
module-exemption rules apply exactly as they would in the tree), and the
findings must match the `// detlint-expect: <rule>[,<rule>]` markers
line-for-line. Files named pass_* must produce no findings; files named
fail_* must produce at least one. The rule-catalogue table in
docs/STATIC_ANALYSIS.md must list exactly the rules of detlint.RULES.

Run directly or via CTest (registered as tier-1 `detlint_fixtures`).
Exit status: 0 = all fixtures behave, 1 = mismatch, 2 = fixture malformed.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import detlint  # noqa: E402

PATH_DIRECTIVE_RE = re.compile(r"//\s*detlint-path:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*detlint-expect:\s*([\w-]+(?:\s*,\s*[\w-]+)*)")

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "tests" / "lint_fixtures"
CATALOGUE_DOC = REPO_ROOT / "docs" / "STATIC_ANALYSIS.md"
# A catalogue row: | `rule` | scope | invariant |
CATALOGUE_ROW_RE = re.compile(r"^\|\s*`([\w-]+)`\s*\|")


def check_fixture(path: Path) -> list:
    """Returns a list of error strings for one fixture (empty = pass)."""
    errors = []
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()

    directive = PATH_DIRECTIVE_RE.search(lines[0]) if lines else None
    if not directive:
        return [f"{path.name}: first line must carry '// detlint-path: "
                f"<virtual repo path>'"]
    virtual_path = directive.group(1)

    expected = set()
    for lineno, line in enumerate(lines, start=1):
        m = EXPECT_RE.search(line)
        if m:
            for rule in (r.strip() for r in m.group(1).split(",")):
                if rule not in detlint.RULES:
                    return [f"{path.name}:{lineno}: expect marker names "
                            f"unknown rule '{rule}'"]
                expected.add((lineno, rule))

    if path.name.startswith("pass_") and expected:
        return [f"{path.name}: pass_* fixtures must not carry expect markers"]
    if path.name.startswith("fail_") and not expected:
        return [f"{path.name}: fail_* fixtures need at least one expect "
                f"marker"]

    actual = {(f.line, f.rule) for f in detlint.lint_file(virtual_path, text)}

    for lineno, rule in sorted(expected - actual):
        errors.append(f"{path.name}:{lineno}: expected [{rule}] finding was "
                      f"not reported (as {virtual_path})")
    for lineno, rule in sorted(actual - expected):
        errors.append(f"{path.name}:{lineno}: unexpected [{rule}] finding "
                      f"(as {virtual_path})")
    return errors


def documented_rules() -> list:
    """Returns the rule names of the "### Rule catalogue" table, in order."""
    rules = []
    in_catalogue = False
    for line in CATALOGUE_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            in_catalogue = line.strip() == "### Rule catalogue"
            continue
        m = CATALOGUE_ROW_RE.match(line) if in_catalogue else None
        if m:
            rules.append(m.group(1))
    return rules


def check_catalogue() -> list:
    """Returns errors where the docs' rule table and detlint.RULES differ."""
    documented = documented_rules()
    errors = [f"{CATALOGUE_DOC.name}: rule '{rule}' is listed twice in the "
              f"rule catalogue" for rule in sorted(set(documented))
              if documented.count(rule) > 1]
    for rule in sorted(detlint.RULES.keys() - set(documented)):
        errors.append(f"{CATALOGUE_DOC.name}: rule '{rule}' is missing from "
                      f"the rule catalogue table")
    for rule in sorted(set(documented) - detlint.RULES.keys()):
        errors.append(f"{CATALOGUE_DOC.name}: the rule catalogue lists "
                      f"'{rule}', which detlint does not have")
    return errors


def main() -> int:
    if not FIXTURE_DIR.is_dir():
        print(f"detlint_test: fixture dir {FIXTURE_DIR} missing",
              file=sys.stderr)
        return 2
    fixtures = sorted(p for p in FIXTURE_DIR.iterdir()
                      if p.suffix in detlint.CXX_SUFFIXES)
    if not fixtures:
        print("detlint_test: no fixtures found", file=sys.stderr)
        return 2
    if not any(p.name.startswith("pass_") for p in fixtures) or \
            not any(p.name.startswith("fail_") for p in fixtures):
        print("detlint_test: need both pass_* and fail_* fixtures",
              file=sys.stderr)
        return 2

    # Every rule in the catalogue must be exercised by at least one fixture
    # (either direction), so new rules cannot land untested.
    exercised = set()
    failures = []
    for fixture in fixtures:
        text = fixture.read_text(encoding="utf-8")
        for m in EXPECT_RE.finditer(text):
            exercised.update(r.strip() for r in m.group(1).split(","))
        for m in detlint.ALLOW_RE.finditer(text):
            exercised.update(r.strip() for r in m.group(1).split(","))
        for m in detlint.ALLOW_FILE_RE.finditer(text):
            exercised.update(r.strip() for r in m.group(1).split(","))
        failures.extend(check_fixture(fixture))

    uncovered = detlint.RULES.keys() - exercised
    for rule in sorted(uncovered):
        failures.append(f"rule '{rule}' has no fixture coverage "
                        f"(add a fail_* fixture with an expect marker)")
    failures.extend(check_catalogue())

    for failure in failures:
        print(failure)
    verdict = "OK" if not failures else f"{len(failures)} problem(s)"
    print(f"detlint_test: {len(fixtures)} fixture(s): {verdict}",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
