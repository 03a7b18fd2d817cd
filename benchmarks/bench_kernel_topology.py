"""Kernel benchmarks: building the topology every workload starts from.

Every environment pays for the synthetic generator, the CSR freeze and
the role classification before any routing runs (``perf/`` reports the
generator as ``topology.generate_s`` inside ``setup_s``).  These three
benches time each at N=8000, the ``paper_shape`` workload's size, with
the generator's default seed.
"""

from __future__ import annotations

import pytest

from repro.routing.compiled import CompiledGraph
from repro.topology.generator import generate_topology
from repro.topology.relationships import ASRole

N = 8000
SEED = 2011


@pytest.fixture(scope="module")
def topology():
    return generate_topology(n=N, seed=SEED)


def test_kernel_topology_generate(benchmark):
    top = benchmark(lambda: generate_topology(n=N, seed=SEED))
    assert top.graph.n == N


def test_kernel_topology_compile(benchmark, topology):
    cg = benchmark(lambda: CompiledGraph.from_graph(topology.graph))
    assert cg.n == N
    assert len(cg.prov_idx) == topology.graph.num_customer_provider_edges()


def test_kernel_topology_roles(benchmark, topology):
    graph = topology.graph
    cps = graph.cp_asns

    def roles():
        graph.set_content_providers(cps)  # drops the cached array
        return graph.roles

    out = benchmark(roles)
    assert (out == int(ASRole.CP)).sum() == len(cps)
