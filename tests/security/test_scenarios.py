"""Tests for the attack-scenario and deployment-strategy registries."""

from __future__ import annotations

import pytest

from repro.security.scenarios import (
    DEFAULT_SCENARIO,
    AttackScenario,
    DeploymentStrategy,
    available_scenarios,
    available_strategies,
    get_scenario,
    get_strategy,
    register_scenario,
    register_strategy,
)


class TestScenarioRegistry:
    def test_all_four_registered(self):
        assert available_scenarios() == [
            "forged_origin", "origin_hijack", "route_leak", "subprefix_hijack",
        ]
        assert DEFAULT_SCENARIO in available_scenarios()

    @pytest.mark.parametrize("alias,canonical", [
        ("hijack", "origin_hijack"),
        ("prefix_hijack", "origin_hijack"),
        ("subprefix", "subprefix_hijack"),
        ("leak", "route_leak"),
        ("path_shortening", "forged_origin"),
    ])
    def test_aliases_resolve(self, alias, canonical):
        assert get_scenario(alias).name == canonical

    def test_objects_pass_through(self):
        hijack = get_scenario("origin_hijack")
        assert get_scenario(hijack) is hijack

    def test_unknown_names_choices(self):
        with pytest.raises(ValueError, match="origin_hijack"):
            get_scenario("dns_poisoning")

    def test_reregistration_is_idempotent(self):
        hijack = get_scenario("origin_hijack")
        assert register_scenario(hijack) is not None
        assert get_scenario("origin_hijack") == hijack

    def test_conflicting_registration_rejected(self):
        clash = AttackScenario(name="origin_hijack", description="different")
        with pytest.raises(ValueError, match="already registered differently"):
            register_scenario(clash)

    def test_alias_conflict_rejected(self):
        other = AttackScenario(name="other_scenario", description="x")
        with pytest.raises(ValueError, match="already points at"):
            register_scenario(other, aliases=("hijack",))

    def test_scenario_must_give_attacker_something_to_do(self):
        with pytest.raises(ValueError, match="nothing to do"):
            AttackScenario(
                name="noop", description="x",
                attacker_originates=False, attacker_leaks=False,
            )

    def test_negative_path_offset_rejected(self):
        with pytest.raises(ValueError, match="attacker_path_offset"):
            AttackScenario(name="x", description="y", attacker_path_offset=-1)


class TestStrategyRegistry:
    def test_all_four_registered(self):
        assert available_strategies() == [
            "market_rounds", "random", "stub_first", "top_isp_first",
        ]

    def test_unknown_names_choices(self):
        with pytest.raises(ValueError, match="top_isp_first"):
            get_strategy("alphabetical")

    def test_objects_pass_through(self):
        strat = get_strategy("top_isp_first")
        assert get_strategy(strat) is strat

    def test_conflicting_registration_rejected(self):
        clash = DeploymentStrategy(name="top_isp_first", description="different")
        with pytest.raises(ValueError, match="already registered differently"):
            register_strategy(clash)

    def test_levels_validated(self, small_graph):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            get_strategy("top_isp_first").states(small_graph, [0.0, 1.5])


class TestStaticOrderings:
    def test_levels_are_nested_prefixes(self, small_graph):
        for name in ("top_isp_first", "random", "stub_first"):
            states = get_strategy(name).states(small_graph, [0.0, 0.3, 1.0])
            assert [level for level, _ in states] == [0.0, 0.3, 1.0]
            deployers = [s.deployers for _, s in states]
            assert deployers[0] == frozenset()
            assert deployers[0] <= deployers[1] <= deployers[2]

    def test_top_isp_first_leads_with_highest_degree(self, small_graph):
        from repro.topology.stats import degree_array

        states = get_strategy("top_isp_first").states(small_graph, [0.05, 1.0])
        first = states[0][1].deployers
        assert first
        degrees = degree_array(small_graph)
        cutoff = min(int(degrees[i]) for i in first)
        left_out = [
            int(i) for i in small_graph.isp_indices if int(i) not in first
        ]
        assert all(int(degrees[i]) <= cutoff for i in left_out)
        # ISPs only: every registered deployer is an ISP index
        assert first <= {int(i) for i in small_graph.isp_indices}

    @pytest.mark.parametrize("n", [1000, 8000])
    def test_degree_ranking_is_the_sorted_order(self, n):
        """One lexsort over the ISPs ranks as a ``sorted`` over (signed
        degree, index) does, both ways."""
        from repro.security.scenarios import _degree_ranked_isps
        from repro.topology.generator import generate_topology
        from repro.topology.stats import degree_array

        graph = generate_topology(n=n, seed=2011).graph
        degrees = degree_array(graph)
        for descending, sign in ((True, -1), (False, 1)):
            want = sorted(graph.isp_indices, key=lambda i: (sign * int(degrees[i]), i))
            got = _degree_ranked_isps(graph, descending)
            assert got == want and all(type(i) is int for i in got)

    def test_stub_first_deploys_stubs_before_isps(self, small_graph):
        from repro.topology.relationships import ASRole

        states = get_strategy("stub_first").states(small_graph, [0.2, 1.0])
        early = states[0][1].deployers
        roles = small_graph.roles
        stub_total = int((roles == int(ASRole.STUB)).sum())
        if len(early) <= stub_total:
            assert all(roles[i] == int(ASRole.STUB) for i in early)

    def test_random_is_seeded(self, small_graph):
        strat = get_strategy("random")
        a = strat.states(small_graph, [0.5], seed=3)[0][1].deployers
        b = strat.states(small_graph, [0.5], seed=3)[0][1].deployers
        c = strat.states(small_graph, [0.5], seed=4)[0][1].deployers
        assert a == b
        assert a != c  # 100 ISPs: identical shuffles are astronomically unlikely


class TestMarketRounds:
    def test_replays_dynamics_snapshots(self, small_graph, small_cache):
        states = get_strategy("market_rounds").states(
            small_graph, [0.0, 0.5, 1.0],
            theta=0.05, cache=small_cache, max_rounds=10,
        )
        assert [level for level, _ in states] == [0.0, 0.5, 1.0]
        sizes = [len(s.deployers | s.early_adopters) for _, s in states]
        assert sizes == sorted(sizes)
        # level 1.0 is the final market state, which top-5 adopters grow
        assert sizes[-1] >= sizes[0]
