"""Golden fixture tests: every rule's positive/waived/clean cases.

Each fixture under ``fixtures/`` is linted with the FULL rule set and
must produce exactly the findings named by its ``expect: CODE`` line
markers — nothing more (clean and waived lines stay silent), nothing
less (positives fire where claimed).  This pins both the rules and the
suppression machinery in one pass per rule.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES
from repro.analysis.program import program_codes

from tests.analysis.linting import lint_text

FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("*.py"))

_EXPECT = re.compile(r"expect:\s*(RPR\d{3})")

# Optional first-line marker: ``# module: repro.service.daemon`` gives a
# fixture a module identity so package-scoped rules (RPR012) can fire.
_MODULE = re.compile(r"^#\s*module:\s*([\w.]+)\s*$", re.MULTILINE)


def expected_findings(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _EXPECT.search(line)
        if match:
            out.append((lineno, match.group(1)))
    return sorted(out)


def fixture_module(text: str) -> str | None:
    match = _MODULE.search(text)
    return match.group(1) if match else None


def test_fixture_suite_is_complete():
    """One golden fixture per rule code (plus the RPR010 meta-rule).

    Program rules (RPR015+) are covered by fixture *packages* —
    directories named after their code, driven by test_program.py.
    """
    covered = {f.name[:6].upper() for f in FIXTURES}
    covered |= {d.name[:6].upper() for d in FIXTURE_DIR.iterdir() if d.is_dir()}
    expected = {rule.code for rule in ALL_RULES} | {"RPR010"} | program_codes()
    assert covered >= expected


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_fixture_findings_match_markers(fixture: Path):
    text = fixture.read_text(encoding="utf-8")
    expected = expected_findings(text)
    assert expected, f"{fixture.name} has no expect markers — not a golden fixture"
    findings = lint_text(text, module=fixture_module(text), path=fixture.name)
    got = sorted((f.line, f.code) for f in findings)
    assert got == expected


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_fixture_findings_carry_location_and_rule_name(fixture: Path):
    findings = lint_text(fixture.read_text(encoding="utf-8"), path=fixture.name)
    for finding in findings:
        assert Path(finding.path).name == fixture.name
        assert finding.line >= 1 and finding.col >= 1
        assert finding.rule and finding.message
