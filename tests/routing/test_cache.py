"""Tests for the routing cache and compiled graph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.cache import RoutingCache
from repro.routing.compiled import CompiledGraph
from repro.routing.policy import RouteClass
from repro.topology.generator import generate_topology


class TestCompiledGraph:
    def test_csr_matches_adjacency(self, small_graph):
        cg = CompiledGraph.from_graph(small_graph)
        for i in range(small_graph.n):
            assert list(cg.cust_idx[cg.cust_indptr[i]:cg.cust_indptr[i + 1]]) == small_graph.customers[i]
            assert list(cg.prov_idx[cg.prov_indptr[i]:cg.prov_indptr[i + 1]]) == small_graph.providers[i]
            assert list(cg.peer_idx[cg.peer_indptr[i]:cg.peer_indptr[i + 1]]) == small_graph.peers[i]

    def test_flat_sources_align(self, small_graph):
        cg = CompiledGraph.from_graph(small_graph)
        for k, src in enumerate(cg.cust_src):
            cust = cg.cust_idx[k]
            assert cust in small_graph.customers[src]


class TestRoutingCache:
    def test_lazy_and_stable(self, small_graph):
        cache = RoutingCache(small_graph)
        a = cache.ensure_arena().view(cache.dest_pos(4))
        b = cache.ensure_arena().view(cache.dest_pos(4))
        assert a is b

    def test_destination_subset(self, small_graph):
        cache = RoutingCache(small_graph, destinations=[1, 5, 9])
        assert cache.destinations == [1, 5, 9]
        assert cache.position_of(5) == 1
        assert cache.position_of(2) is None
        with pytest.raises(KeyError):
            cache.dest_pos(2)

    def test_cls_matrix_rows(self, small_graph):
        cache = RoutingCache(small_graph, destinations=[2, 8])
        mat = cache.cls_matrix
        assert mat.shape == (2, small_graph.n)
        assert mat[0, 2] == int(RouteClass.SELF)
        assert mat[1, 8] == int(RouteClass.SELF)

    def test_warm_fills_everything(self):
        top = generate_topology(n=60, seed=1)
        cache = RoutingCache(top.graph)
        cache.warm()
        assert cache.stats().cached == top.graph.n
        assert not cache.pending_runs()

    def test_warm_is_incremental(self):
        top = generate_topology(n=60, seed=19)
        cache = RoutingCache(top.graph)
        cache.warm()
        cache.warm()
        first = cache.ensure_arena().view(cache.dest_pos(5))
        cache.warm()
        assert cache.ensure_arena().view(cache.dest_pos(5)) is first  # not recomputed
        assert cache.stats().builds == top.graph.n
