"""Tests for result serialisation."""

from __future__ import annotations

import io
import json

import pytest

from repro.core.adopters import top_degree_isps
from repro.core.config import SimulationConfig
from repro.core.dynamics import run_deployment
from repro.experiments.persistence import RESULT_FORMAT, result_to_dict, save_result
from repro.runtime.atomic import load_checked_json


@pytest.fixture(scope="module")
def result(small_graph, small_cache):
    return run_deployment(
        small_graph, top_degree_isps(small_graph, 3),
        SimulationConfig(theta=0.05), small_cache,
    )


class TestSerialisation:
    def test_dict_shape(self, result):
        payload = result_to_dict(result)
        assert payload["format"] == "repro.simulation-result/1"
        assert payload["outcome"] == "stable"
        assert len(payload["rounds"]) == result.num_rounds
        assert payload["config"]["theta"] == 0.05

    def test_round_counts_consistent(self, result):
        payload = result_to_dict(result)
        assert payload["rounds"][0]["secure_ases"] <= len(
            payload["final_secure_asns"]
        )
        all_on = {a for r in payload["rounds"] for a in r["turned_on"]}
        assert all_on <= set(payload["final_deployers"])

    def test_tracked_utilities(self, result):
        graph = result.graph
        asn = graph.asn(graph.isp_indices[0])
        payload = result_to_dict(result, track_asns=[asn])
        series = payload["tracked_utilities"][str(asn)]
        assert len(series) == result.num_rounds + 1

    def test_json_roundtrip_stringio(self, result):
        buf = io.StringIO()
        save_result(result, buf)
        buf.seek(0)
        loaded = json.load(buf)
        assert loaded == result_to_dict(result)

    def test_file_roundtrip(self, result, tmp_path):
        path = tmp_path / "run.json"
        save_result(result, path)
        loaded = load_checked_json(path, expected_format=RESULT_FORMAT)
        assert loaded["num_ases"] == result.graph.n

    def test_format_check(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="unrecognised"):
            load_checked_json(path, expected_format=RESULT_FORMAT)
