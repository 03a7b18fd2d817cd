"""Every tiebreak set is stored in tie-break order, and every tree kernel
reads it that way.

The pools keep each row's candidates ascending in ``(tie_hash(u, v) &
~POS_MASK, v)`` (:func:`repro.routing.tree.tie_order`), so TB's pick is
a row's first candidate and SecP's its first secure one.  The first
half checks that layout with the scalar :func:`repro.routing.policy.
tie_hash` on every builder — the chunk build on every loadable tier, the
fixpoint (``security_2nd`` / ``security_1st``), SP-first and the sticky
restriction — over the fixed shapes of ``test_structure_build`` and
hypothesis GR1 graphs.  The second half holds each tier's tree kernel to
``tests/references.py::compute_tree``, which still minimises hashed keys
and so does not rely on the order.  Collected by the blocking
``backend-matrix`` CI job.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.routing import backends as kernel_backends
from repro.routing.arena import RoutingArena, compute_trees_batched
from repro.routing.compiled import CompiledGraph
from repro.routing.errors import BackendUnavailable
from repro.routing.policy import POSITION_BITS, get_policy, tie_hash
from repro.routing.tree import StructurePools, chunk_pools, tie_order
from repro.topology.graph import ASGraph

from tests.references import compute_tree
from tests.routing.test_structure_build import SHAPES
from tests.strategies import as_graphs, graphs_with_security

TIERS = ["numpy", "cext"]

#: every builder a routing policy has: the state-independent chunk build
#: (security_3rd), the fixpoint, SP-first and the sticky restriction
POLICIES = ["security_3rd", "security_2nd", "security_1st", "sp_first", "sticky_primaries"]

_HASH_MASK = ~((1 << POSITION_BITS) - 1)

#: the tier is a parameter hypothesis does not draw
_PER_TIER = [HealthCheck.differing_executors]


def _tier(name: str) -> None:
    try:
        kernel_backends.load_backend(name)
    except BackendUnavailable:
        pytest.skip(f"{name} backend not loadable here")


def _tie_sorted(u: int, cands: list[int]) -> list[int]:
    return sorted(cands, key=lambda v: (tie_hash(u, v) & _HASH_MASK, v))


def _assert_tie_ordered(pools: StructurePools) -> None:
    for slot in range(pools.num_dests):
        view = pools.view(slot)
        for row, u in enumerate(view.order.tolist()):
            cands = view.cands[view.indptr[row]:view.indptr[row + 1]].tolist()
            assert cands == _tie_sorted(u, cands), (pools.policy, view.dest, u)


def _mixed_state(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    node_secure = rng.random(n) < 0.5
    return node_secure, node_secure & (rng.random(n) < 0.7)


def _check_builders(graph: ASGraph, tier: str) -> None:
    cg = CompiledGraph.from_graph(graph)
    dests = [*range(graph.n - 1, -1, -1), 0]
    for pools in chunk_pools(cg, dests, tier):
        _assert_tie_ordered(pools)
    node_secure, breaks_ties = _mixed_state(graph.n, graph.n)
    for name in POLICIES:
        _assert_tie_ordered(get_policy(name).build_pools(
            graph, dests, cg, node_secure=node_secure, breaks_ties=breaks_ties,
            backend=tier,
        ))


@pytest.mark.parametrize("tier", TIERS)
class TestEveryBuilderEmitsTieOrder:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_fixed_shapes(self, tier, shape):
        _tier(tier)
        _check_builders(SHAPES[shape], tier)

    @given(graph=as_graphs(max_nodes=14))
    @settings(max_examples=25, deadline=None, suppress_health_check=_PER_TIER)
    def test_random_gr1_graphs(self, tier, graph):
        _tier(tier)
        _check_builders(graph, tier)

    def test_generated_topology(self, tier, small_graph):
        _tier(tier)
        cg = CompiledGraph.from_graph(small_graph)
        for pools in chunk_pools(cg, range(0, small_graph.n, 3), tier):
            _assert_tie_ordered(pools)


class TestTieOrderOfACsr:
    @given(graph=as_graphs(max_nodes=20))
    @settings(max_examples=40, deadline=None)
    def test_each_segment_sorted_by_the_scalar_hash(self, graph):
        cg = CompiledGraph.from_graph(graph)
        for ptr, idx in ((cg.cust_indptr, cg.cust_idx), (cg.peer_indptr, cg.peer_idx),
                         (cg.prov_indptr, cg.prov_idx)):
            got = idx[tie_order(ptr, idx)]
            for u in range(graph.n):
                seg = slice(ptr[u], ptr[u + 1])
                assert got[seg].tolist() == _tie_sorted(u, idx[seg].tolist())

    def test_equal_hash_high_bits_fall_back_to_the_node(self, monkeypatch):
        """Two candidates whose hashes share their high bits go by node:
        forced here by a hash that keeps only the node's bits."""
        import repro.routing.tree as tree_module

        monkeypatch.setattr(tree_module, "tie_hash_array", lambda u, v: u << np.uint64(20))
        ptr = np.array([0, 3, 5], dtype=np.int64)
        nbrs = np.array([7, 2, 5, 9, 1], dtype=np.int32)
        assert nbrs[tie_order(ptr, nbrs)].tolist() == [2, 5, 7, 1, 9]

    def test_more_nodes_than_a_packed_key_holds(self):
        """Past ``2**POSITION_BITS`` segments the segment and all of the
        hash's high bits no longer fit one word beside each other, and
        fewer of the hash's bits go in; the order is the same."""
        n = (1 << POSITION_BITS) + 2
        ptr = np.zeros(n + 1, dtype=np.int64)
        ptr[n - 2:] = [0, 4, 7]   # the last two nodes hold every entry
        nbrs = np.array([9, 3, n - 5, 60000, 4, 1, n - 3], dtype=np.int32)
        got = nbrs[tie_order(ptr, nbrs)]
        assert got[:4].tolist() == _tie_sorted(n - 2, nbrs[:4].tolist())
        assert got[4:].tolist() == _tie_sorted(n - 1, nbrs[4:].tolist())


def _check_trees(graph: ASGraph, tier: str, node_secure: np.ndarray,
                 breaks_ties: np.ndarray) -> None:
    cg = CompiledGraph.from_graph(graph)
    parts = list(chunk_pools(cg, range(graph.n), tier))
    arena = RoutingArena.build(graph.n, parts, backend=tier)
    slots = np.arange(arena.num_dests, dtype=np.int64)
    got = compute_trees_batched(arena, slots, node_secure, breaks_ties)
    for k in range(arena.num_dests):
        want = compute_tree(arena.view(k), node_secure, breaks_ties)
        assert got.choice[k].tolist() == want.choice.tolist(), (tier, k)
        assert got.secure[k].tolist() == want.secure.tolist(), (tier, k)
        assert got.any_secure[k].tolist() == want.any_secure_candidate.tolist(), (tier, k)


@pytest.mark.parametrize("tier", TIERS)
class TestTreeKernelsTakeTheFirstCandidate:
    """TB takes a row's first candidate and SecP its first secure one, on
    every tier, as the hash-minimising oracle picks."""

    @pytest.mark.parametrize("density", [0.0, 0.3, 0.7, 1.0])
    def test_generated_topology(self, tier, density, small_graph):
        _tier(tier)
        rng = np.random.default_rng(int(density * 10))
        node_secure = rng.random(small_graph.n) < density
        for breaks_ties in (node_secure, node_secure & (rng.random(small_graph.n) < 0.5)):
            _check_trees(small_graph, tier, node_secure, breaks_ties)

    @given(case=graphs_with_security())
    @settings(max_examples=40, deadline=None, suppress_health_check=_PER_TIER)
    def test_random_graphs_and_states(self, tier, case):
        _tier(tier)
        graph, secure = case
        node_secure = np.zeros(graph.n, dtype=bool)
        node_secure[secure] = True
        _check_trees(graph, tier, node_secure, node_secure)
