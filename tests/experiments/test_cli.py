"""CLI smoke tests (fast, tiny graphs)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("case-study", "sweep", "tiebreak", "cp-vs-tier1",
                    "turnoff", "graph-stats"):
            args = parser.parse_args([cmd, "--n", "50"])
            assert args.command == cmd
            assert args.n == 50

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_graph_stats(self, capsys):
        assert main(["graph-stats", "--n", "60"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_tiebreak(self, capsys):
        assert main(["tiebreak", "--n", "60"]) == 0
        assert "tiebreak" in capsys.readouterr().out

    def test_case_study(self, capsys):
        assert main(["case-study", "--n", "60", "--theta", "0.05"]) == 0
        assert "early adopters" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["case-study", "sweep", "graph-stats"])
    def test_output_names_the_tier_that_ran(self, capsys, command):
        assert main([command, "--n", "60", "--kernel-backend", "numpy"]) == 0
        out = capsys.readouterr().out
        if command == "graph-stats":   # the routing cache table's row
            assert out.splitlines()[-1].split()[:2] == ["security_3rd", "numpy"]
        else:
            assert "kernel backend: numpy" in out


class TestExperimentValidation:
    def test_unknown_id_fails_fast_with_valid_ids(self, capsys):
        # must fail before the environment build, so even a large --n
        # returns immediately
        assert main(["experiment", "--id", "nope", "--n", "100000"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment id 'nope'" in err
        assert "fig8" in err and "table2" in err

    def test_known_id_runs(self, capsys):
        assert main(["experiment", "--id", "table2", "--n", "60"]) == 0
        assert "Table 2" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_sweep_writes_metrics_and_trace(self, capsys, tmp_path, small_chunks):
        import json

        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        assert main([
            "sweep", "--n", "60", "--workers", "2",
            "--metrics-out", str(metrics),
            "--trace-out", str(trace),
            "--trace-jsonl", str(jsonl),
        ]) == 0
        assert "telemetry summary" in capsys.readouterr().out

        from repro.telemetry.export import load_metrics

        snap = load_metrics(metrics)
        # worker-side counters (tree builds in the warm workers) merged in
        assert snap["counters"]["routing.tree_builds"] == 60
        assert snap["counters"]["sweep.cells"] > 0
        assert snap["counters"]["engine.maps"] >= 1

        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"sweep", "cell", "round"} <= names
        assert all(e["ph"] == "X" for e in payload["traceEvents"])
        assert jsonl.read_text().count("\n") == len(payload["traceEvents"])

    def test_case_study_prints_summary(self, capsys, tmp_path):
        metrics = tmp_path / "m.json"
        assert main([
            "case-study", "--n", "60", "--metrics-out", str(metrics),
        ]) == 0
        assert "telemetry summary" in capsys.readouterr().out
        assert metrics.exists()

    def test_no_flags_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["case-study", "--n", "60"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_graph_stats_prints_cache_stats(self, capsys):
        assert main(["graph-stats", "--n", "60"]) == 0
        out = capsys.readouterr().out
        assert "routing cache" in out
        assert "100.0%" in out


class TestSweepResume:
    def test_journal_resume_and_out(self, capsys, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        out = tmp_path / "table.txt"
        assert main(["sweep", "--n", "60", "--journal", str(journal)]) == 0
        first = capsys.readouterr().out
        snapshot = journal.read_text()

        # a resumed run replays every cell and prints the same table
        assert main([
            "sweep", "--n", "60", "--journal", str(journal),
            "--resume", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out == first
        assert journal.read_text() == snapshot
        assert "Fig 8/9" in out.read_text()

    def test_existing_journal_requires_resume(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--n", "60", "--journal", str(journal)]) == 0
        with pytest.raises(SystemExit, match="--resume"):
            main(["sweep", "--n", "60", "--journal", str(journal)])

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit, match="--journal"):
            main(["sweep", "--n", "60", "--resume"])

    def test_resume_under_different_policy_is_one_line_error(self, tmp_path):
        """The policy-mismatch SchemaError surfaces as a clean SystemExit
        message naming both policies, not a traceback."""
        journal = tmp_path / "sweep.jsonl"
        assert main([
            "sweep", "--n", "60", "--policy", "security_2nd",
            "--journal", str(journal),
        ]) == 0
        with pytest.raises(SystemExit, match="security_2nd.*security_1st"):
            main([
                "sweep", "--n", "60", "--policy", "security_1st",
                "--journal", str(journal), "--resume",
            ])


class TestAttackImpact:
    def test_matrix_table_prints(self, capsys):
        assert main([
            "attack-impact", "--n", "60", "--samples", "2",
            "--scenario", "hijack", "--strategy", "top_isp_first",
            "--levels", "0,1",
        ]) == 0
        out = capsys.readouterr().out
        assert "Attack impact vs deployment level" in out
        assert "origin_hijack" in out  # alias resolved to canonical name

    def test_defaults_span_all_scenarios_and_strategies(self, capsys):
        assert main([
            "attack-impact", "--n", "60", "--samples", "2", "--levels", "0",
        ]) == 0
        out = capsys.readouterr().out
        for name in ("origin_hijack", "subprefix_hijack", "route_leak",
                     "forged_origin", "stub_first", "market_rounds"):
            assert name in out

    def test_unknown_scenario_is_clean_error(self):
        with pytest.raises(SystemExit, match="unknown attack scenario"):
            main(["attack-impact", "--n", "60", "--scenario", "nope"])

    def test_journal_resume_replays(self, capsys, tmp_path):
        journal = tmp_path / "matrix.jsonl"
        args = [
            "attack-impact", "--n", "60", "--samples", "2",
            "--scenario", "origin_hijack", "--strategy", "top_isp_first",
            "--levels", "0,1", "--journal", str(journal),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        snapshot = journal.read_text()
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first
        assert journal.read_text() == snapshot

    def test_existing_journal_requires_resume(self, tmp_path):
        journal = tmp_path / "matrix.jsonl"
        args = [
            "attack-impact", "--n", "60", "--samples", "2",
            "--scenario", "origin_hijack", "--strategy", "top_isp_first",
            "--levels", "0", "--journal", str(journal),
        ]
        assert main(args) == 0
        with pytest.raises(SystemExit, match="--resume"):
            main(args)

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit, match="--journal"):
            main(["attack-impact", "--n", "60", "--resume"])

    def test_scenario_mismatch_is_one_line_error(self, tmp_path):
        journal = tmp_path / "matrix.jsonl"
        base = [
            "attack-impact", "--n", "60", "--samples", "2",
            "--strategy", "top_isp_first", "--levels", "0",
            "--journal", str(journal),
        ]
        assert main(base + ["--scenario", "origin_hijack"]) == 0
        with pytest.raises(SystemExit, match="origin_hijack.*route_leak"):
            main(base + ["--scenario", "route_leak", "--resume"])
