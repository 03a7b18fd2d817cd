"""Tests for table rendering."""

from __future__ import annotations

from repro.experiments.report import format_series, format_table


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "long"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len({len(line) for line in lines}) == 1  # all same width

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_float_formatting(self):
        out = format_table(["v"], [[0.5], [2.0], [0.001]])
        assert "0.5" in out
        assert "2" in out
        assert "0.0010" in out

    def test_empty_rows(self):
        out = format_table(["h"], [])
        assert "h" in out


def test_format_series():
    assert format_series("x", [1, 2], "{:d}") == "x: 1 2"
