"""Tests for path reconstruction helpers."""

from __future__ import annotations

import numpy as np

from repro.routing.paths import as_path, path_is_secure, transit_nodes
from repro.routing.tree import compute_dest_routing
from repro.topology.graph import ASGraph

from tests.references import compute_tree


def make_chain() -> ASGraph:
    g = ASGraph()
    for asn in (10, 20, 30):
        g.add_as(asn)
    g.add_customer_provider(provider=10, customer=20)
    g.add_customer_provider(provider=20, customer=30)
    return g


def test_as_path_returns_asns():
    g = make_chain()
    dr = compute_dest_routing(g, g.index(30))
    none = np.zeros(g.n, dtype=bool)
    tree = compute_tree(dr, none, none)
    assert as_path(g, tree, 10) == [10, 20, 30]


def test_as_path_unreachable():
    g = make_chain()
    g.add_as(99)
    dr = compute_dest_routing(g, g.index(30))
    none = np.zeros(g.n, dtype=bool)
    tree = compute_tree(dr, none, none)
    assert as_path(g, tree, 99) == []


def test_transit_nodes_strictly_between():
    g = make_chain()
    dr = compute_dest_routing(g, g.index(30))
    none = np.zeros(g.n, dtype=bool)
    tree = compute_tree(dr, none, none)
    assert transit_nodes(tree, g.index(10), g.index(30)) == [g.index(20)]
    assert transit_nodes(tree, g.index(20), g.index(30)) == []


def test_path_is_secure_flag():
    g = make_chain()
    dr = compute_dest_routing(g, g.index(30))
    all_secure = np.ones(g.n, dtype=bool)
    tree = compute_tree(dr, all_secure, all_secure)
    assert path_is_secure(tree, g.index(10))
    none = np.zeros(g.n, dtype=bool)
    tree2 = compute_tree(dr, none, none)
    assert not path_is_secure(tree2, g.index(10))
