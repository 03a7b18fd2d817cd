"""Whole-program pass tests: golden fixture packages + repo self-clean.

Mirrors the per-file golden-fixture contract (see test_fixtures.py) at
package granularity: each directory under ``fixtures/`` holding a
``repro/`` tree is linted with ``--program`` narrowed to one rule, and
must produce exactly the findings named by its ``expect: CODE`` line
markers.  The self-clean test then pins the real repository at zero
program findings, which is what makes the CI gate trustworthy.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import lint_paths

FIXTURE_DIR = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]

_EXPECT = re.compile(r"expect:\s*(RPR\d{3})")

#: fixture package -> (linted root, program rules selected for it).
#: Narrowing to one code per package keeps each fixture focused: the
#: fork-safety package is free to contain dead helpers, the layering
#: package need not map every module in the repo-root manifest, and so
#: on.  The dead-API package is linted from a ``src`` root, so its
#: sibling ``tests/`` and ``perf/`` trees are judged as callers the way
#: the repository's own are.
PACKAGES = {
    "rpr015_layering": ("repro", frozenset({"RPR015"})),
    "rpr016_forksafety": ("repro", frozenset({"RPR016"})),
    "rpr017_dead_api": ("src", frozenset({"RPR017"})),
}


def expected_package_findings(pkg: Path) -> list[tuple[str, int, str]]:
    out = []
    for path in sorted(pkg.rglob("*.py")):
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = _EXPECT.search(line)
            if match:
                out.append((str(path), lineno, match.group(1)))
    return sorted(out)


@pytest.mark.parametrize("name", sorted(PACKAGES), ids=str)
def test_fixture_package_findings_match_markers(name: str):
    pkg = FIXTURE_DIR / name
    root, select = PACKAGES[name]
    expected = expected_package_findings(pkg)
    assert expected, f"{name} has no expect markers — not a golden fixture"
    result = lint_paths([pkg / root], rules=[], program=True, program_select=select)
    got = sorted((f.path, f.line, f.code) for f in result.findings)
    assert got == expected


def test_program_findings_carry_location_and_rule_name():
    pkg = FIXTURE_DIR / "rpr015_layering"
    result = lint_paths(
        [pkg / "repro"], rules=[], program=True, program_select=frozenset({"RPR015"})
    )
    for finding in result.findings:
        assert finding.line >= 1 and finding.col >= 1
        assert finding.rule and finding.message
        assert finding.code in {"RPR015"}


@pytest.fixture(scope="module")
def repo_pass(tmp_path_factory):
    """One whole-program pass over the roots ``make lint`` and ``make
    import-graph`` read: its result and the import graph it rendered."""
    dot = tmp_path_factory.mktemp("graph") / "import_graph.dot"
    result = lint_paths(
        [REPO / "src", REPO / "scripts", REPO / "benchmarks"],
        rules=[],
        program=True,
        graph_out=dot,
    )
    return result, dot.read_text(encoding="utf-8")


def test_repo_is_program_clean(repo_pass):
    """The repository's own tree carries zero whole-program findings.

    This is the self-application gate: ``make lint`` and CI run the same
    command, so a regression here is a regression there.
    """
    result, _ = repo_pass
    assert result.findings == (), "\n".join(
        f.format_text() for f in result.findings
    )
    summary = result.program
    assert summary is not None
    assert summary.modules > 50
    assert summary.packages >= 10
    assert summary.edges_eager > summary.edges_lazy
    # the job scheduler's threads: no process engine maps over workers
    assert summary.entrypoints >= 1
    assert summary.reachable_functions > 100
    assert summary.public_symbols > 300
    assert summary.manifest_source is not None


def test_committed_import_graph_is_current(repo_pass):
    """docs/import_graph.dot is what ``make import-graph`` renders today:
    a change that moves an edge between packages regenerates it."""
    _, rendered = repo_pass
    committed = (REPO / "docs" / "import_graph.dot").read_text(encoding="utf-8")
    assert rendered == committed, "docs/import_graph.dot is stale; run `make import-graph`"


def test_graph_out_writes_dot(tmp_path: Path):
    pkg = FIXTURE_DIR / "rpr015_layering"
    dot = tmp_path / "graph.dot"
    lint_paths(
        [pkg / "repro"],
        rules=[],
        program=True,
        program_select=frozenset(),
        graph_out=dot,
    )
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert "repro.mid" in text and "repro.top" in text
    # eager upward edge drawn solid; lazy edge dashed; typing dotted
    assert "style=dashed" in text and "style=dotted" in text


def test_program_waivers_stay_quiet_in_per_file_runs():
    """Regression for RPR010 accounting across granularities.

    ``worker.py`` carries a used RPR016 waiver and a deliberately stale
    one.  A per-file run never executes program rules, so it must not
    judge either waiver — reporting the used one as stale would train
    people to delete load-bearing waivers.
    """
    worker = FIXTURE_DIR / "rpr016_forksafety" / "repro" / "fixture016" / "worker.py"
    findings = lint_paths([worker]).findings
    assert not any(f.code in {"RPR010", "RPR016"} for f in findings), "\n".join(
        f.format_text() for f in findings
    )
