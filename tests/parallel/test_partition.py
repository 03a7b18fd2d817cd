"""Tests for destination partitioning."""

from __future__ import annotations

import pytest

from repro.parallel.partition import partition


class TestPartition:
    def test_round_robin(self):
        parts = partition(list(range(7)), 3)
        assert parts == [[0, 3, 6], [1, 4], [2, 5]]

    def test_all_items_present_once(self):
        items = list(range(100))
        parts = partition(items, 7)
        flat = sorted(x for p in parts for x in p)
        assert flat == items

    def test_more_partitions_than_items(self):
        parts = partition([1, 2], 5)
        assert parts == [[1], [2]]

    def test_empty(self):
        assert partition([], 3) == []

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            partition([1], 0)

