"""Suppression machinery: waivers, stale-waiver findings, select interplay."""

from __future__ import annotations

from repro.analysis import get_rules
from repro.analysis.findings import UNUSED_SUPPRESSION
from repro.analysis.suppressions import SuppressionTable

from tests.analysis.linting import lint_text


class TestDirectiveParsing:
    def test_single_code(self):
        table = SuppressionTable.from_source('x = open("f", "w")  # repro-lint: disable=RPR001\n')
        assert table.codes_on_line(1) == frozenset({"RPR001"})

    def test_multiple_codes_and_trailing_reason(self):
        table = SuppressionTable.from_source(
            "y = 1  # repro-lint: disable=RPR001, RPR002 -- reason text\n"
        )
        assert table.codes_on_line(1) == frozenset({"RPR001", "RPR002"})

    def test_directive_inside_string_literal_is_ignored(self):
        table = SuppressionTable.from_source('s = "# repro-lint: disable=RPR001"\n')
        assert table.codes_on_line(1) == frozenset()

    def test_usage_tracking(self):
        table = SuppressionTable.from_source("x = 1  # repro-lint: disable=RPR001\n")
        assert not table.is_suppressed(1, "RPR002")
        assert table.is_suppressed(1, "RPR001")
        assert table.unused(frozenset({"RPR001"})) == []

    def test_unused_reported_only_for_active_codes(self):
        table = SuppressionTable.from_source("x = 1  # repro-lint: disable=RPR001\n")
        assert table.unused(frozenset({"RPR001"})) == [(1, "RPR001")]
        assert table.unused(frozenset({"RPR002"})) == []


class TestSuppressionEndToEnd:
    def test_waived_violation_produces_no_findings(self):
        source = 'fh = open("f", "w")  # repro-lint: disable=RPR001\n'
        assert lint_text(source) == []

    def test_unused_suppression_is_itself_a_finding(self):
        source = "x = 1  # repro-lint: disable=RPR003\n"
        findings = lint_text(source)
        assert [f.code for f in findings] == [UNUSED_SUPPRESSION]
        assert findings[0].line == 1
        assert "RPR003" in findings[0].message

    def test_wrong_code_does_not_waive(self):
        source = 'fh = open("f", "w")  # repro-lint: disable=RPR002\n'
        assert sorted(f.code for f in lint_text(source)) == ["RPR001", UNUSED_SUPPRESSION]

    def test_select_subset_does_not_misreport_other_waivers(self):
        # Running only RPR002 must not call RPR001's waiver stale.
        source = 'fh = open("f", "w")  # repro-lint: disable=RPR001\n'
        rules = get_rules(select=frozenset({"RPR002"}))
        assert lint_text(source, rules=rules) == []
