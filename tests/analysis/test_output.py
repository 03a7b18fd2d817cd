"""CLI behaviour: JSON schema, text format, exit codes, rule catalogue."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import main, render_json, render_text
from repro.analysis.engine import lint_paths
from repro.analysis.findings import JSON_FORMAT, PARSE_ERROR
from repro.analysis.rules import ALL_RULES

VIOLATION = 'fh = open("out.txt", "w")\n'
CLEAN = "VALUE = 1\n"


@pytest.fixture
def violation_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(VIOLATION, encoding="utf-8")
    return path


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "good.py"
    path.write_text(CLEAN, encoding="utf-8")
    return path


class TestJsonSchema:
    def test_schema_shape(self, violation_file):
        payload = json.loads(render_json(lint_paths([violation_file])))
        assert payload["format"] == JSON_FORMAT
        assert payload["files_checked"] == 1
        assert isinstance(payload["findings"], list) and payload["findings"]
        finding = payload["findings"][0]
        assert set(finding) == {"path", "line", "col", "code", "rule", "message"}
        assert finding["code"] == "RPR001"
        assert isinstance(finding["line"], int) and finding["line"] == 1
        assert payload["counts"] == {"RPR001": 1}

    def test_clean_run_schema(self, clean_file):
        payload = json.loads(render_json(lint_paths([clean_file])))
        assert payload["findings"] == [] and payload["counts"] == {}

    def test_findings_sorted_deterministically(self, tmp_path):
        (tmp_path / "b.py").write_text(VIOLATION, encoding="utf-8")
        (tmp_path / "a.py").write_text(VIOLATION, encoding="utf-8")
        payload = json.loads(render_json(lint_paths([tmp_path])))
        paths = [f["path"] for f in payload["findings"]]
        assert paths == sorted(paths)


class TestTextOutput:
    def test_finding_line_format(self, violation_file):
        text = render_text(lint_paths([violation_file]))
        assert f"{violation_file}:1:6: RPR001" in text
        assert "1 finding(s)" in text

    def test_clean_summary(self, clean_file):
        assert "clean: 0 findings (1 files checked)" in render_text(lint_paths([clean_file]))


class TestExitCodes:
    def test_clean_exits_zero(self, clean_file, capsys):
        assert main([str(clean_file)]) == 0
        capsys.readouterr()

    def test_findings_exit_one(self, violation_file, capsys):
        assert main([str(violation_file)]) == 1
        capsys.readouterr()

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.txt")]) == 2
        capsys.readouterr()

    def test_unknown_code_usage_error(self, clean_file):
        with pytest.raises(SystemExit) as err:
            main(["--select", "RPR999", str(clean_file)])
        assert err.value.code == 2

    def test_no_paths_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestParseErrors:
    def test_unparseable_file_is_a_finding(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert PARSE_ERROR in out


class TestCatalogueAndEntryPoint:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out

    def test_python_dash_m_entry_point(self, clean_file):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(clean_file)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout
