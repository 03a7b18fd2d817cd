"""Tests for the §8.3 routing-policy variants."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.routing.policy as policy_module
from repro.routing.cache import RoutingCache
from repro.routing.policy import (
    POSITION_BITS,
    RouteClass,
    available_policies,
    get_policy,
    register_policy,
    tie_hash_array,
)
from repro.routing.tree import DestRouting
from repro.topology.graph import ASGraph

from tests.references import compute_tree, subtree_weights, tie_keys


def valley_graph() -> ASGraph:
    """1 reaches 3 via a 3-hop customer chain or a 2-hop peer route."""
    g = ASGraph()
    for asn in (1, 2, 5, 3, 4):
        g.add_as(asn)
    g.add_customer_provider(provider=1, customer=2)
    g.add_customer_provider(provider=2, customer=5)
    g.add_customer_provider(provider=5, customer=3)
    g.add_customer_provider(provider=4, customer=3)
    g.add_peering(1, 4)
    return g


def sp_first_routing(graph: ASGraph, dest: int) -> DestRouting:
    """One destination's SP-first structure, as the policy builds it."""
    return get_policy("sp_first").build_pools(graph, [dest]).view(0)


class TestSpFirst:
    def test_sp_beats_lp(self):
        """The defining difference: a shorter peer route now beats a
        longer customer route."""
        g = valley_graph()
        dr = sp_first_routing(g, g.index(3))
        i1 = g.index(1)
        assert dr.lengths[i1] == 2
        assert dr.cls[i1] == int(RouteClass.PEER)
        assert list(dr.tiebreak_set(i1)) == [g.index(4)]

    def test_gao_rexford_prefers_customer(self):
        """Sanity: the default policy picks the longer customer chain."""
        from repro.routing.tree import compute_dest_routing

        g = valley_graph()
        dr = compute_dest_routing(g, g.index(3))
        i1 = g.index(1)
        assert dr.cls[i1] == int(RouteClass.CUSTOMER)
        assert dr.lengths[i1] == 3

    def test_lp_still_second_criterion(self):
        """Equal-length customer and peer candidates: customer wins."""
        g = ASGraph()
        for asn in (1, 2, 3, 4):
            g.add_as(asn)
        g.add_customer_provider(provider=1, customer=2)
        g.add_customer_provider(provider=2, customer=3)
        g.add_customer_provider(provider=4, customer=3)
        g.add_peering(1, 4)
        dr = sp_first_routing(g, g.index(3))
        i1 = g.index(1)
        assert dr.cls[i1] == int(RouteClass.CUSTOMER)
        assert list(dr.tiebreak_set(i1)) == [g.index(2)]

    def test_gr2_still_enforced(self):
        """A peer route is still not exportable over another peering."""
        g = ASGraph()
        for asn in (1, 2, 3):
            g.add_as(asn)
        g.add_peering(1, 2)
        g.add_peering(2, 3)
        dr = sp_first_routing(g, g.index(3))
        assert dr.lengths[g.index(1)] == -1

    def test_paths_never_longer_than_gao_rexford(self, small_graph):
        from repro.routing.tree import compute_dest_routing

        for dest in range(0, small_graph.n, 23):
            base = compute_dest_routing(small_graph, dest)
            sp = sp_first_routing(small_graph, dest)
            reachable = base.lengths >= 0
            assert (sp.lengths[reachable] <= base.lengths[reachable]).all()

    def test_game_engine_runs_on_variant(self, small_graph):
        secure = np.zeros(small_graph.n, dtype=bool)
        secure[::4] = True
        dr = sp_first_routing(small_graph, 3)
        tree = compute_tree(dr, secure, secure)
        w = subtree_weights(dr, tree, small_graph.weights)
        assert w.sum() >= 0

    def test_the_state_never_reaches_the_build(self, small_graph):
        """SecP ranks last, so one security-free structure serves every
        state: a state handed to the build changes none of its bytes."""
        secure = np.zeros(small_graph.n, dtype=bool)
        secure[::2] = True
        dests = list(range(0, small_graph.n, 9))
        policy = get_policy("sp_first")
        plain = policy.build_pools(small_graph, dests).arrays()
        stated = policy.build_pools(
            small_graph, dests, node_secure=secure, breaks_ties=secure
        ).arrays()
        for name, array in plain.items():
            assert array.tobytes() == stated[name].tobytes(), name

    def test_policy_registry(self, small_graph):
        cache = RoutingCache(small_graph, policy="sp-first")
        assert cache.policy_name == "sp_first"
        assert cache.ensure_arena().view(cache.dest_pos(0)).dest == 0
        with pytest.raises(ValueError):
            RoutingCache(small_graph, policy="nonsense")
        assert set(available_policies()) >= {
            "security_3rd", "security_2nd", "security_1st",
            "sp_first", "sticky_primaries",
        }
        # aliases of the pre-registry POLICIES dict keep resolving
        assert get_policy("gao-rexford").name == "security_3rd"
        assert get_policy("sp-first").name == "sp_first"


def restrict_to_primary(graph: ASGraph, dest: int, sticky: np.ndarray) -> DestRouting:
    """One destination's default structure through the pooled restriction."""
    pools = get_policy("security_3rd").build_pools(graph, [dest])
    return pools.restrict_to_primary(sticky).view(0)


@pytest.fixture
def all_sticky():
    """§8.3's variant with *every* AS pinning a primary, registered for
    the test (what a ``transform=`` hook with an all-ones mask did)."""
    policy = register_policy(dataclasses.replace(
        get_policy("sticky_primaries"), name="all_sticky", sticky_fraction=1.0
    ))
    yield policy
    del policy_module._REGISTRY[policy.name]


def restrict_to_primary_reference(dr: DestRouting, sticky: np.ndarray) -> DestRouting:
    """The row-by-row restriction ``restrict_to_primary`` vectorises:
    each sticky node with several candidates keeps the hash-minimal one."""
    order, indptr, cands = dr.order, dr.indptr, dr.cands
    new_cands: list[int] = []
    new_indptr = np.zeros(len(order) + 1, dtype=np.int32)
    for row, node in enumerate(order):
        node = int(node)
        cs = cands[indptr[row]:indptr[row + 1]]
        if len(cs) > 1 and sticky[node]:
            keys = tie_hash_array(
                np.full(len(cs), node, dtype=np.uint64), cs.astype(np.uint64)
            )
            keys = (keys & ~np.uint64((1 << POSITION_BITS) - 1)) | np.arange(
                len(cs), dtype=np.uint64
            )
            cs = cs[int(np.argmin(keys)):][:1]
        new_cands.extend(int(c) for c in cs)
        new_indptr[row + 1] = new_indptr[row] + len(cs)
    return DestRouting(
        dest=dr.dest,
        cls=dr.cls,
        lengths=dr.lengths,
        order=order,
        row_of=dr.row_of,
        level_starts=dr.level_starts,
        indptr=new_indptr,
        cands=np.asarray(new_cands, dtype=np.int32),
    )


def _assert_same_structure(got: DestRouting, want: DestRouting) -> None:
    for name in ("cls", "lengths", "order", "row_of", "level_starts", "indptr", "cands"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert tie_keys(got).tobytes() == tie_keys(want).tobytes()


class TestStickyPrimaries:
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    def test_matches_row_by_row_reference(self, small_graph, small_cache, fraction):
        sticky = np.random.default_rng(5).random(small_graph.n) < fraction
        for dest in (0, 7, 11, 60, 199):
            dr = small_cache.ensure_arena().view(small_cache.dest_pos(dest))
            before = (dr.indptr.tobytes(), dr.cands.tobytes(), tie_keys(dr).tobytes())
            _assert_same_structure(
                restrict_to_primary(small_graph, dest, sticky),
                restrict_to_primary_reference(dr, sticky),
            )
            assert before == (dr.indptr.tobytes(), dr.cands.tobytes(), tie_keys(dr).tobytes())

    def test_registered_policy_matches_reference_per_chunk(self, small_graph):
        """``sticky_primaries`` restricts a whole chunk at once; every
        destination of it equals the reference applied to the default
        policy's structure."""
        policy = get_policy("sticky_primaries")
        sticky = policy.sticky_mask(small_graph.n)
        dests = list(range(0, small_graph.n, 4)) + [3, 3]
        plain = get_policy("security_3rd").build_pools(small_graph, dests).views()
        for got, dr in zip(policy.build_pools(small_graph, dests).views(), plain, strict=True):
            assert got.policy == "sticky_primaries"
            _assert_same_structure(got, restrict_to_primary_reference(dr, sticky))

    def test_sticky_nodes_get_singletons(self, small_graph, small_cache):
        sticky = np.ones(small_graph.n, dtype=bool)
        restricted = restrict_to_primary(small_graph, 7, sticky)
        sizes = restricted.tiebreak_sizes()
        assert (sizes[1:] == 1).all()

    def test_primary_matches_insecure_choice(self, small_graph, small_cache):
        """The surviving candidate is the security-free hash choice, so
        insecure routing is unchanged."""
        dr = small_cache.ensure_arena().view(small_cache.dest_pos(11))
        none = np.zeros(small_graph.n, dtype=bool)
        before = compute_tree(dr, none, none)
        sticky = np.ones(small_graph.n, dtype=bool)
        after = compute_tree(restrict_to_primary(small_graph, 11, sticky), none, none)
        assert (before.choice == after.choice).all()

    def test_non_sticky_untouched(self, small_graph, small_cache):
        dr = small_cache.ensure_arena().view(small_cache.dest_pos(5))
        sticky = np.zeros(small_graph.n, dtype=bool)
        restricted = restrict_to_primary(small_graph, 5, sticky)
        assert (restricted.indptr == dr.indptr).all()
        assert (restricted.cands == dr.cands).all()

    def test_sp_first_ranking_keeps_its_sticky_restriction(self, small_graph):
        """Stickiness restricts whichever state-independent structure the
        ranking builds: under ``SP > LP`` it collapses the SP-first
        tiebreak sets of the sticky nodes."""
        policy = dataclasses.replace(
            get_policy("sp_first"), name="sticky_sp_first", sticky_fraction=0.5
        )
        sticky = policy.sticky_mask(small_graph.n)
        dests = list(range(0, small_graph.n, 5))
        plain = get_policy("sp_first").build_pools(small_graph, dests).views()
        collapsed = 0
        for got, dr in zip(policy.build_pools(small_graph, dests).views(), plain, strict=True):
            _assert_same_structure(got, restrict_to_primary_reference(dr, sticky))
            collapsed += int(((dr.tiebreak_sizes() > 1) & sticky[dr.order]).sum())
        assert collapsed > 0   # the restriction had sets to collapse

    @pytest.mark.parametrize("name", ["security_2nd", "security_1st"])
    def test_a_state_dependent_ranking_refuses_stickiness(self, name):
        """Tiebreak sets that move with the deployment state have no
        fixed primary to pin."""
        with pytest.raises(ValueError, match="SecP last"):
            dataclasses.replace(get_policy(name), name="sticky", sticky_fraction=0.5)
        assert dataclasses.replace(get_policy(name), sticky_fraction=0.0).state_dependent

    def test_all_sticky_policy_through_the_cache(self, small_graph, small_cache, all_sticky):
        assert all_sticky.sticky_mask(small_graph.n).all()
        cache = RoutingCache(small_graph, policy="all_sticky")
        for dest in (9, 60):
            got = cache.ensure_arena().view(cache.dest_pos(dest))
            assert got.policy == "all_sticky"
            assert (got.tiebreak_sizes()[1:] == 1).all()
            plain = small_cache.ensure_arena().view(small_cache.dest_pos(dest))
            _assert_same_structure(got, restrict_to_primary_reference(
                plain, np.ones(small_graph.n, dtype=bool)
            ))
