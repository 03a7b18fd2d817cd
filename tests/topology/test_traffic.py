"""Traffic model tests, including the paper's w_CP = 821 pin."""

from __future__ import annotations

import pytest

from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph
from repro.topology.traffic import (
    apply_traffic_model,
    content_provider_weight,
)


class TestContentProviderWeight:
    def test_paper_number(self):
        """The paper reports w_CP = 821 for x=10% on 36,964 ASes."""
        w = content_provider_weight(36_964 - 5, 0.10, num_cps=5)
        assert round(w) == 821

    def test_zero_x(self):
        assert content_provider_weight(100, 0.0) == 1.0

    def test_half_traffic(self):
        # x = 0.5: CP weight sum equals the rest of the graph
        w = content_provider_weight(1000, 0.5, num_cps=5)
        assert w * 5 == pytest.approx(1000)

    def test_invalid_x(self):
        with pytest.raises(ValueError):
            content_provider_weight(10, 1.0)
        with pytest.raises(ValueError):
            content_provider_weight(10, -0.1)

    def test_invalid_num_cps(self):
        with pytest.raises(ValueError):
            content_provider_weight(10, 0.1, num_cps=0)


class TestApplyTrafficModel:
    def test_fraction_achieved(self):
        top = generate_topology(n=300, seed=2)
        for x in (0.10, 0.20, 0.33, 0.50):
            apply_traffic_model(top.graph, x)
            weights = top.graph.weights
            cps = top.graph.cp_indices
            assert weights[cps].sum() / weights.sum() == pytest.approx(x)

    def test_non_cp_weights_reset_to_unit(self):
        top = generate_topology(n=100, seed=2)
        g = top.graph
        g.set_weight(top.tier1_asns[0], 50.0)
        apply_traffic_model(g, 0.10)
        assert g.weights[g.index(top.tier1_asns[0])] == 1.0

    def test_no_cps_and_positive_x_rejected(self):
        g = ASGraph()
        g.add_as(1)
        with pytest.raises(ValueError):
            apply_traffic_model(g, 0.10)

    def test_no_cps_zero_x_ok(self):
        g = ASGraph()
        g.add_as(1)
        assert apply_traffic_model(g, 0.0) == 1.0
