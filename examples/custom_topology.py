"""Bring your own topology: CAIDA as-rel files and hand-built graphs.

Shows the two ways to run the simulator on non-generated data:

1. write/read the standard CAIDA ``as-rel`` format (real Cyclops /
   CAIDA serial-1 snapshots load the same way);
2. build a small AS graph by hand and watch a single DIAMOND drive
   both competitors to deploy.

Usage::

    python examples/custom_topology.py
"""

from __future__ import annotations

import io

from repro import ASGraph, SimulationConfig, run_deployment
from repro.topology.serialization import dumps_as_rel, loads_as_rel

AS_REL_SNIPPET = """\
# a miniature internet in CAIDA as-rel format
# cp: 500
1|2|0
1|10|-1
2|20|-1
1|20|-1
10|100|-1
20|100|-1
10|500|-1
"""


def caida_roundtrip_demo() -> None:
    print("=" * 64)
    print("1. Loading a CAIDA as-rel snapshot")
    graph = loads_as_rel(io.StringIO(AS_REL_SNIPPET).read())
    print(f"  loaded {graph.n} ASes, "
          f"{graph.num_customer_provider_edges()} customer-provider edges, "
          f"{graph.num_peering_edges()} peerings; CPs: {sorted(graph.cp_asns)}")
    print("  re-serialised:")
    for line in dumps_as_rel(graph).splitlines():
        print(f"    {line}")


def hand_built_demo() -> None:
    print("=" * 64)
    print("2. A hand-built DIAMOND, simulated")
    g = ASGraph()
    for asn in (1, 2, 3, 9):
        g.add_as(asn)
    g.add_customer_provider(provider=1, customer=2)   # Tier-1 -> ISP A
    g.add_customer_provider(provider=1, customer=3)   # Tier-1 -> ISP B
    g.add_customer_provider(provider=2, customer=9)   # both provide the stub
    g.add_customer_provider(provider=3, customer=9)
    g.validate()
    g.set_weight(1, 10.0)  # the Tier-1 sources real traffic

    result = run_deployment(g, early_adopter_asns=[1],
                            config=SimulationConfig(theta=0.01))
    for record in result.rounds:
        adopters = [g.asn(i) for i in record.turned_on]
        print(f"  round {record.index}: {adopters or 'stable'}")
    secure = [g.asn(i) for i in range(g.n) if result.final_node_secure[i]]
    print(f"  secure at termination: {secure}")
    print("  -> the competitor that lost the Tier-1's tie-break deploys"
          " first; the other follows to win its traffic back.")


if __name__ == "__main__":
    caida_roundtrip_demo()
    hand_built_demo()
