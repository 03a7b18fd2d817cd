"""Preflight validation: quarantine, repair, strict mode.

The hypothesis round-trip properties (``repair(dump(g)) == g``) live in
``tests/runtime/test_guard_chaos.py`` with the rest of the chaos suite.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.topology.errors import GraphValidationError
from repro.topology.generator import generate_topology
from repro.topology.preflight import (
    PREFLIGHT_MODES,
    preflight_as_rel,
    preflight_as_rel_text,
)
from repro.topology.serialization import dumps_as_rel

CLEAN = """\
# cp: 30
1|2|-1
1|3|-1
2|3|0
3|30|-1
"""

DIRTY = """\
1|2|-1
not a line at all
1|2|-1
2|1|-1
4|4|0
1|3|-1
9|9|9|9
"""


class TestCleanInput:
    @pytest.mark.parametrize("mode", PREFLIGHT_MODES)
    def test_clean_file_has_no_issues(self, mode):
        graph, report = preflight_as_rel_text(CLEAN, mode=mode)
        assert report.ok
        assert report.dropped_edges == 0
        assert report.num_components == 1
        assert graph.cp_asns == {30}
        assert graph.n == 4


class TestQuarantine:
    def test_issues_carry_line_numbers_and_codes(self):
        _graph, report = preflight_as_rel_text(DIRTY, mode="repair")
        by_code = {}
        for issue in report.issues:
            by_code.setdefault(issue.code, []).append(issue.lineno)
        assert by_code["malformed"] == [2, 7]
        assert by_code["duplicate_edge"] == [3]
        assert by_code["conflicting_edge"] == [4]
        assert by_code["self_loop"] == [5]

    def test_repair_keeps_first_declaration(self):
        graph, report = preflight_as_rel_text(DIRTY, mode="repair")
        # 1|2|-1 kept once (1 provider of 2); 2|1|-1 conflict dropped
        assert graph.customers_of(1) == [2, 3]
        assert graph.providers_of(2) == [1]
        assert report.dropped_edges == 5

    def test_strict_raises_with_every_issue(self):
        with pytest.raises(GraphValidationError) as info:
            preflight_as_rel_text(DIRTY, mode="strict")
        assert len(info.value.issues) == 5
        assert "line 2" in str(info.value) or ":2:" in str(info.value)

    def test_report_mode_warns_and_repairs(self, caplog):
        with caplog.at_level("WARNING", logger="repro.topology.preflight"):
            graph, report = preflight_as_rel_text(DIRTY, mode="report")
        assert not report.ok
        assert len(caplog.records) == len(report.issues)
        assert graph.n == 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown preflight mode"):
            preflight_as_rel_text(CLEAN, mode="yolo")


def _with_cycles(n: int, cycles: int, seed: int) -> str:
    """The as-rel text of a generated graph plus ``cycles`` lines that
    each make an AS the provider of one of its providers' providers."""
    graph = generate_topology(n=n, seed=seed).graph
    rng = random.Random(seed)
    lines: list[str] = []
    added: set[tuple[int, int]] = set()
    while len(lines) < cycles:
        u = rng.randrange(graph.n)
        ups = graph.providers[u]
        if not ups:
            continue
        up = ups[rng.randrange(len(ups))]
        tops = graph.providers[up]
        if not tops:
            continue
        a, b = graph.asn(u), graph.asn(tops[rng.randrange(len(tops))])
        if graph.has_edge(a, b) or (min(a, b), max(a, b)) in added:
            continue
        added.add((min(a, b), max(a, b)))
        lines.append(f"{a}|{b}|-1")
    return dumps_as_rel(graph) + "\n".join(lines) + "\n"


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


class TestProviderCycles:
    CYCLIC = "1|2|-1\n2|3|-1\n3|1|-1\n"

    def test_cycle_broken_in_repair_mode(self):
        graph, report = preflight_as_rel_text(self.CYCLIC, mode="repair")
        codes = [i.code for i in report.issues]
        assert "provider_cycle" in codes
        graph.validate()  # repaired graph satisfies GR1

    def test_several_cycles_are_broken_in_order(self):
        text = (
            "1|2|-1\n2|3|-1\n3|1|-1\n3|4|-1\n4|5|-1\n5|3|-1\n"
            "6|7|-1\n7|8|-1\n8|6|-1\n2|9|0\n9|6|-1\n"
        )
        graph, report = preflight_as_rel_text(text, mode="repair")
        assert report.dropped_edges == 3
        assert [i.format() for i in report.issues] == [
            "line 1: [provider_cycle] customer-provider cycle 1 -> 3 -> 2 -> 1; "
            "dropped the closing edge 2|1",
            "line 4: [provider_cycle] customer-provider cycle 3 -> 5 -> 4 -> 3; "
            "dropped the closing edge 4|3",
            "line 7: [provider_cycle] customer-provider cycle 6 -> 8 -> 7 -> 6; "
            "dropped the closing edge 7|6",
        ]
        assert dumps_as_rel(graph).splitlines()[1:] == [
            "2|3|-1", "2|9|0", "3|1|-1", "4|5|-1", "5|3|-1", "7|8|-1",
            "8|6|-1", "9|6|-1",
        ]
        # 200 cycles closed through a generated N=8000 graph: the repair
        # drops what re-validating after every drop dropped, in order
        # (digests of the report and of the repaired graph, as that
        # repair wrote them)
        graph, report = preflight_as_rel_text(_with_cycles(8000, 200, seed=5), mode="repair")
        dropped = "\n".join(i.format() for i in report.issues)
        assert report.dropped_edges == len(report.issues) == 344
        assert report.issues[0].format() == (
            "line 137: [provider_cycle] customer-provider cycle 1 -> 3399 -> 617 -> 1; "
            "dropped the closing edge 617|1"
        )
        assert _digest(dropped) == "51485e063f0b00684fbe6da3bae51c44"
        assert _digest(dumps_as_rel(graph)) == "f7e08122ccf9005f20b336498ea5bf36"
        graph.validate()

    def test_cycle_fails_strict_mode(self):
        with pytest.raises(GraphValidationError, match="provider_cycle|cycle"):
            preflight_as_rel_text(self.CYCLIC, mode="strict")


class TestComponents:
    def test_disconnected_components_reported(self):
        graph, report = preflight_as_rel_text("1|2|-1\n8|9|0\n", mode="repair")
        assert report.num_components == 2
        assert any(i.code == "disconnected" for i in report.issues)
        assert graph.n == 4


class TestLoadAsRelIntegration:
    def test_preflight_of_a_path_repairs(self, tmp_path):
        path = tmp_path / "dirty.as-rel"
        path.write_text(DIRTY)
        graph, _report = preflight_as_rel(path, mode="repair")
        assert graph.n == 3

    def test_strict_preflight_of_a_path_raises(self, tmp_path):
        path = tmp_path / "dirty.as-rel"
        path.write_text(DIRTY)
        with pytest.raises(GraphValidationError) as info:
            preflight_as_rel(path, mode="strict")
        assert str(path) in str(info.value)

    def test_path_source_names_file_in_report(self, tmp_path):
        path = tmp_path / "g.as-rel"
        path.write_text(CLEAN)
        _graph, report = preflight_as_rel(path, mode="report")
        assert report.origin == str(path)


class TestReportSerialization:
    def test_to_dict_is_json_ready(self):
        import json

        _graph, report = preflight_as_rel_text(DIRTY, mode="repair")
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["num_issues"] == len(report.issues)
        assert payload["issues"][0]["lineno"] == report.issues[0].lineno

    def test_format_text_lists_findings(self):
        _graph, report = preflight_as_rel_text(DIRTY, mode="repair")
        text = report.format_text()
        assert "5 issue(s)" in text
        assert "[malformed]" in text
