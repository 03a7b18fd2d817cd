"""Tests for heterogeneous thresholds (§8.2) and pricing models (§8.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adopters import cps_plus_top_isps
from repro.core.config import SimulationConfig
from repro.core.dynamics import run_deployment
from repro.core.pricing import LINEAR_PRICING, Pricing, PricingModel
from repro.core.thresholds import (
    degree_scaled_thresholds,
    lognormal_thresholds,
    uniform_thresholds,
)


class TestThresholdGenerators:
    def test_uniform(self, small_graph):
        t = uniform_thresholds(small_graph, 0.1)
        assert (t == 0.1).all()
        with pytest.raises(ValueError):
            uniform_thresholds(small_graph, -1)

    def test_lognormal_median(self, small_graph):
        t = lognormal_thresholds(small_graph, 0.05, sigma=0.5, seed=3)
        assert np.median(t) == pytest.approx(0.05, rel=0.3)
        assert t.std() > 0
        with pytest.raises(ValueError):
            lognormal_thresholds(small_graph, -0.1)

    def test_lognormal_zero_sigma_is_uniform(self, small_graph):
        t = lognormal_thresholds(small_graph, 0.05, sigma=0.0)
        assert np.allclose(t, 0.05)

    def test_degree_scaled_monotone(self, small_graph):
        t = degree_scaled_thresholds(small_graph, 0.05, exponent=0.5)
        degrees = [small_graph.degree_of_index(i) for i in range(small_graph.n)]
        hi = int(np.argmax(degrees))
        lo = int(np.argmin(degrees))
        assert t[hi] >= t[lo]

    def test_deterministic(self, small_graph):
        a = lognormal_thresholds(small_graph, 0.05, seed=1)
        b = lognormal_thresholds(small_graph, 0.05, seed=1)
        assert (a == b).all()


class TestPricing:
    def test_linear_is_identity(self):
        assert LINEAR_PRICING.revenue(123.4) == 123.4

    def test_tiered_steps(self):
        p = Pricing(model=PricingModel.TIERED, tier=10.0)
        assert p.revenue(0.0) == 0.0
        assert p.revenue(0.1) == 10.0
        assert p.revenue(10.0) == 10.0
        assert p.revenue(10.1) == 20.0

    def test_concave(self):
        p = Pricing(model=PricingModel.CONCAVE, alpha=0.5)
        assert p.revenue(100.0) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Pricing(tier=0)
        with pytest.raises(ValueError):
            Pricing(alpha=0)
        with pytest.raises(ValueError):
            LINEAR_PRICING.revenue(-1)

    def test_improves_rule(self):
        assert LINEAR_PRICING.improves(100, 106, theta=0.05)
        assert not LINEAR_PRICING.improves(100, 105, theta=0.05)
        tier = Pricing(model=PricingModel.TIERED, tier=50.0)
        # a within-tier gain earns no extra revenue
        assert not tier.improves(10, 30, theta=0.0)
        assert tier.improves(10, 60, theta=0.0)


    @pytest.mark.parametrize("pricing", [
        LINEAR_PRICING,
        Pricing(model=PricingModel.TIERED, tier=7.0),
        Pricing(model=PricingModel.CONCAVE, alpha=0.7),
        Pricing(model=PricingModel.CONCAVE, alpha=0.33),
    ], ids=["linear", "tiered", "concave-0.7", "concave-0.33"])
    def test_improves_per_entry_is_the_scalar_rule(self, pricing):
        """A round decides every ISP in one call: entry by entry the rule
        on scalar revenues, bit for bit, on the margin too."""
        rng = np.random.default_rng(11)
        current = np.concatenate((rng.random(500) * 1e4, [0.0, 1.0, 49.0, 1e15]))
        theta = rng.choice([0.0, 0.05, 0.3], size=len(current))
        # projected utilities right on the (1 + theta) line and one ulp
        # either side of it, and anywhere else
        line = (1.0 + theta) * current
        projected = np.concatenate((
            line, np.nextafter(line, np.inf), np.nextafter(line, -np.inf).clip(0),
            rng.random(len(current)) * 2e4,
        ))
        current, theta = np.tile(current, 4), np.tile(theta, 4)
        got = pricing.improves(current, projected, theta)
        want = [
            pricing.revenue(p) > (1.0 + t) * pricing.revenue(c)
            for c, p, t in zip(current.tolist(), projected.tolist(), theta.tolist())
        ]
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)
        with pytest.raises(ValueError, match="traffic must be >= 0"):
            pricing.improves(current, -projected, theta)


class TestDynamicsIntegration:
    def test_uniform_thresholds_match_scalar_theta(self, small_graph, small_cache):
        adopters = cps_plus_top_isps(small_graph, 3)
        cfg = SimulationConfig(theta=0.05)
        a = run_deployment(small_graph, adopters, cfg, small_cache)
        b = run_deployment(
            small_graph, adopters, cfg, small_cache,
            thresholds=uniform_thresholds(small_graph, 0.05),
        )
        assert a.final_state.deployers == b.final_state.deployers

    def test_threshold_length_validated(self, small_graph, small_cache):
        with pytest.raises(ValueError):
            run_deployment(
                small_graph, [], SimulationConfig(), small_cache,
                thresholds=np.array([0.1]),
            )

    def test_higher_thresholds_less_adoption(self, small_graph, small_cache):
        adopters = cps_plus_top_isps(small_graph, 3)
        lo = run_deployment(
            small_graph, adopters, SimulationConfig(theta=0.0), small_cache,
            thresholds=uniform_thresholds(small_graph, 0.02),
        )
        hi = run_deployment(
            small_graph, adopters, SimulationConfig(theta=0.0), small_cache,
            thresholds=uniform_thresholds(small_graph, 0.60),
        )
        assert hi.final_node_secure.sum() <= lo.final_node_secure.sum()

    def test_tiered_pricing_dampens_adoption(self, small_graph, small_cache):
        """Coarse billing tiers hide small traffic gains, so adoption
        can only shrink relative to linear pricing."""
        adopters = cps_plus_top_isps(small_graph, 3)
        cfg = SimulationConfig(theta=0.05)
        linear = run_deployment(small_graph, adopters, cfg, small_cache)
        tiered = run_deployment(
            small_graph, adopters, cfg, small_cache,
            pricing=Pricing(model=PricingModel.TIERED, tier=200.0),
        )
        assert (
            tiered.final_node_secure.sum() <= linear.final_node_secure.sum()
        )
