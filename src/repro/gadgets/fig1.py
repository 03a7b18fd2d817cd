"""The paper's Figure-1 example network, reconstructed.

Figure 1 annotates the model walkthrough of Section 3: ISPs 8866, 8928
and 25076, stubs 34376 and 31420, content providers 15169 (Google) and
22822 (Limelight), with 8866 and 22822 as early adopters.  The worked
utility example: five sources (two CPs and three ASes) transit traffic
through ``n = 8866`` to destination ``d = 31420``, contributing
``2*w_CP + 3`` outgoing utility, and ``T_8866(22822, S)`` contains ASes
31420, 25076 and 34376.

Unit tests pin both facts against this construction.
"""

from __future__ import annotations

import dataclasses

from repro.topology.graph import ASGraph


@dataclasses.dataclass(frozen=True)
class Fig1Network:
    """Figure 1's cast, with the paper's AS numbers."""

    graph: ASGraph
    isp_8866: int = 8866
    isp_8928: int = 8928
    isp_25076: int = 25076
    stub_34376: int = 34376
    stub_31420: int = 31420
    cp_google: int = 15169
    cp_limelight: int = 22822

    @property
    def early_adopters(self) -> tuple[int, ...]:
        """Per the caption: ISP 8866 and CP 22822 are the adopters."""
        return (self.isp_8866, self.cp_limelight)


def build_fig1(w_cp: float = 821.0) -> Fig1Network:  # repro-lint: disable=RPR017 -- Fig 1, checked by its tests
    """Construct the Figure-1 topology.

    ``w_cp`` is the CP weight (821 matches x = 10% at paper scale).
    """
    g = ASGraph(cp_asns=[15169, 22822])
    for asn in (8866, 8928, 25076, 34376, 31420, 15169, 22822):
        g.add_as(asn)

    # provider hierarchy under 8866
    g.add_customer_provider(provider=8866, customer=31420)
    g.add_customer_provider(provider=8866, customer=25076)
    g.add_customer_provider(provider=25076, customer=34376)

    # peerings: the competing ISP and the CPs (CPs peer at IXPs)
    g.add_peering(8866, 8928)
    g.add_peering(8866, 15169)
    g.add_peering(8866, 22822)
    g.add_peering(8928, 15169)
    g.add_peering(8928, 22822)

    g.validate()
    g.set_weight(15169, w_cp)
    g.set_weight(22822, w_cp)
    return Fig1Network(graph=g)
