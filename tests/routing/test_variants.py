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
    compute_dest_routing_sp_first,
    get_policy,
    register_policy,
    tie_hash_array,
)
from repro.routing.tree import DestRouting, compute_tie_keys
from repro.topology.graph import ASGraph

from tests.references import compute_tree, subtree_weights


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


class TestSpFirst:
    def test_sp_beats_lp(self):
        """The defining difference: a shorter peer route now beats a
        longer customer route."""
        g = valley_graph()
        dr = compute_dest_routing_sp_first(g, g.index(3))
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
        dr = compute_dest_routing_sp_first(g, g.index(3))
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
        dr = compute_dest_routing_sp_first(g, g.index(3))
        assert dr.lengths[g.index(1)] == -1

    def test_paths_never_longer_than_gao_rexford(self, small_graph):
        from repro.routing.tree import compute_dest_routing

        for dest in range(0, small_graph.n, 23):
            base = compute_dest_routing(small_graph, dest)
            sp = compute_dest_routing_sp_first(small_graph, dest)
            reachable = base.lengths >= 0
            assert (sp.lengths[reachable] <= base.lengths[reachable]).all()

    def test_game_engine_runs_on_variant(self, small_graph):
        secure = np.zeros(small_graph.n, dtype=bool)
        secure[::4] = True
        dr = compute_dest_routing_sp_first(small_graph, 3)
        tree = compute_tree(dr, secure, secure)
        w = subtree_weights(dr, tree, small_graph.weights)
        assert w.sum() >= 0

    def test_policy_registry(self, small_graph):
        cache = RoutingCache(small_graph, policy="sp-first")
        assert cache.policy_name == "sp_first"
        assert cache.dest_routing(0).dest == 0
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
    new_indptr = np.zeros(len(order) + 1, dtype=np.int64)
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
    assert got.tie_keys().tobytes() == compute_tie_keys(
        want.order, want.indptr, want.cands
    ).tobytes()


class TestStickyPrimaries:
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    def test_matches_row_by_row_reference(self, small_graph, small_cache, fraction):
        sticky = np.random.default_rng(5).random(small_graph.n) < fraction
        for dest in (0, 7, 11, 60, 199):
            dr = small_cache.dest_routing(dest)
            before = (dr.indptr.tobytes(), dr.cands.tobytes(), dr.tie_keys().tobytes())
            _assert_same_structure(
                restrict_to_primary(small_graph, dest, sticky),
                restrict_to_primary_reference(dr, sticky),
            )
            assert before == (dr.indptr.tobytes(), dr.cands.tobytes(), dr.tie_keys().tobytes())

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
        dr = small_cache.dest_routing(11)
        none = np.zeros(small_graph.n, dtype=bool)
        before = compute_tree(dr, none, none)
        sticky = np.ones(small_graph.n, dtype=bool)
        after = compute_tree(restrict_to_primary(small_graph, 11, sticky), none, none)
        assert (before.choice == after.choice).all()

    def test_non_sticky_untouched(self, small_graph, small_cache):
        dr = small_cache.dest_routing(5)
        sticky = np.zeros(small_graph.n, dtype=bool)
        restricted = restrict_to_primary(small_graph, 5, sticky)
        assert (restricted.indptr == dr.indptr).all()
        assert (restricted.cands == dr.cands).all()

    def test_all_sticky_policy_through_the_cache(self, small_graph, small_cache, all_sticky):
        assert all_sticky.sticky_mask(small_graph.n).all()
        cache = RoutingCache(small_graph, policy="all_sticky")
        for dest in (9, 60):
            got = cache.dest_routing(dest)
            assert got.policy == "all_sticky"
            assert (got.tiebreak_sizes()[1:] == 1).all()
            _assert_same_structure(got, restrict_to_primary_reference(
                small_cache.dest_routing(dest), np.ones(small_graph.n, dtype=bool)
            ))
