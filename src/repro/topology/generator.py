"""Synthetic Internet-like AS topology generator.

The paper runs on the Cyclops AS graph of Dec 9 2010 augmented with IXP
peering edges (Appendix D, Table 2): 36,964 ASes, 72,848
customer-provider edges and 38,829 peerings, with ~85% stubs, a small
clique of Tier-1s with enormous customer degree, five content providers
and a heavily skewed degree distribution.

That dataset is not shipped here, so this module generates synthetic
topologies that reproduce the structural statistics the paper's results
rely on (see DESIGN.md, Substitutions):

- ~85% stubs, five CPs, remaining ASes are transit ISPs;
- a Tier-1 clique at the top of an acyclic provider hierarchy (GR1
  holds by construction: providers always live in a strictly higher
  tier);
- preferential attachment for provider selection, yielding power-law
  customer degrees and a handful of very large transit ASes;
- multihoming (mean ~2 providers per AS) so that competing providers
  and DIAMOND structures (Figure 2) exist;
- IXP peering pools, mirroring the IXP edges of [3] that the paper uses
  for its augmented graph.

Real data in CAIDA ``as-rel`` format can be loaded instead via
:mod:`repro.topology.serialization`.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Sequence

from repro.topology.errors import DuplicateEdgeError
from repro.topology.graph import ASGraph


@dataclasses.dataclass(frozen=True)
class TopologyConfig:
    """Parameters of the synthetic topology.

    The defaults track the proportions of the paper's AS graph; only
    ``n`` (total AS count) normally needs to be chosen.
    """

    n: int = 2000
    stub_fraction: float = 0.85
    num_cps: int = 5
    num_tier1: int = 8
    regional_fraction: float = 0.3  # fraction of transit ISPs that are regional
    seed: int = 2011
    #: distribution of the number of providers for stubs: P(1), P(2), P(3)
    stub_multihoming: tuple[float, float, float] = (0.50, 0.38, 0.12)
    #: distribution of the number of providers for non-Tier-1 ISPs
    isp_multihoming: tuple[float, float, float] = (0.35, 0.45, 0.20)
    #: target ratio of peering edges to ASes (paper: 38,829/36,964 ~= 1.05)
    peering_ratio: float = 1.05
    num_ixps: int = 4
    #: fraction of ISPs that are present at some IXP
    ixp_member_fraction: float = 0.35
    #: providers per content provider (Tier-1 transit)
    cp_providers: int = 2
    #: fraction of IXP members each CP peers with in the *base* graph
    cp_base_peering: float = 0.05

    def __post_init__(self) -> None:
        if self.n < 20:
            raise ValueError(f"n must be at least 20, got {self.n}")
        if not 0 < self.stub_fraction < 1:
            raise ValueError("stub_fraction must be in (0, 1)")
        for dist in (self.stub_multihoming, self.isp_multihoming):
            if abs(sum(dist) - 1.0) > 1e-9:
                raise ValueError(f"multihoming distribution must sum to 1: {dist}")


@dataclasses.dataclass
class GeneratedTopology:
    """A generated graph plus the structural metadata experiments need."""

    graph: ASGraph
    tier1_asns: list[int]
    cp_asns: list[int]
    ixp_members: list[list[int]]  # AS numbers per IXP
    config: TopologyConfig

    @property
    def all_ixp_member_asns(self) -> list[int]:
        """Union of all IXP member AS numbers, deduplicated, ordered."""
        seen: set[int] = set()
        out: list[int] = []
        for members in self.ixp_members:
            for asn in members:
                if asn not in seen:
                    seen.add(asn)
                    out.append(asn)
        return out


#: AS count of the paper's Cyclops Dec-9-2010 graph (Appendix D, Table 2).
PAPER_SCALE_N = 36964


def paper_scale_config(seed: int = 2011) -> TopologyConfig:
    """The paper-scale preset: a 36,964-AS graph in the paper's mixture.

    The :class:`TopologyConfig` defaults already track the paper's
    proportions (85% stubs, five CPs, Tier-1 clique, ~1.05 peerings per
    AS), so the preset only pins ``n`` to the Cyclops snapshot's AS
    count.  Routing structures at this size are dense in the number of
    destinations — pair this with destination sampling
    (``build_environment(sample_destinations=...)`` or the CLI's
    ``--destinations``) unless you have hundreds of GiB to spare; see
    README, "Running at paper scale".
    """
    return TopologyConfig(n=PAPER_SCALE_N, seed=seed)


def generate_topology(config: TopologyConfig | None = None, **overrides: object) -> GeneratedTopology:
    """Generate a synthetic Internet-like AS graph.

    Either pass a :class:`TopologyConfig` or keyword overrides of its
    fields, e.g. ``generate_topology(n=1500, seed=7)``.

    The graph is a function of the sequence of draws made from one
    ``random.Random(config.seed)``: the same seed gives the same graph,
    every adjacency list in the same order, on every CPython whose
    ``random`` makes the same draws.  ``TestDrawSequence`` in
    ``tests/topology/test_generator.py`` pins that sequence.
    """
    if config is not None and not isinstance(config, TopologyConfig):
        raise TypeError(
            "generate_topology() takes a TopologyConfig or keyword fields, "
            f"e.g. generate_topology(n=1500, seed=7); got {config!r} as config"
        )
    if config is None:
        config = TopologyConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        config = dataclasses.replace(config, **overrides)  # type: ignore[arg-type]
    rng = random.Random(config.seed)
    # The hot loops below inline ``rng.choice`` and ``rng.sample``, draw
    # for draw.  ``rng.choice(s)`` is ``s[rng._randbelow(len(s))]``, and
    # ``_randbelow(m)`` draws ``getrandbits(m.bit_length())`` until the
    # draw is below ``m``.
    draw = rng.random
    getrandbits = rng.getrandbits

    n_stub = int(round(config.n * config.stub_fraction))
    n_cp = min(config.num_cps, max(0, config.n - n_stub - config.num_tier1))
    n_transit = config.n - n_stub - n_cp
    n_tier1 = min(config.num_tier1, max(1, n_transit))
    n_other_isp = n_transit - n_tier1
    n_regional = int(round(n_other_isp * config.regional_fraction))
    n_access = n_other_isp - n_regional

    next_asn = 1
    tier1 = list(range(next_asn, next_asn + n_tier1))
    next_asn += n_tier1
    regional = list(range(next_asn, next_asn + n_regional))
    next_asn += n_regional
    access = list(range(next_asn, next_asn + n_access))
    next_asn += n_access
    cps = list(range(next_asn, next_asn + n_cp))
    next_asn += n_cp
    stubs = list(range(next_asn, next_asn + n_stub))

    graph = ASGraph(cp_asns=cps)
    for asn in tier1 + regional + access + cps + stubs:
        graph.add_as(asn)
    add_customer_provider = graph.add_customer_provider
    add_peering = graph.add_peering

    # Tier-1 clique (settlement-free peerings).
    for i, a in enumerate(tier1):
        for b in tier1[i + 1:]:
            add_peering(a, b)

    # Preferential-attachment lists: a provider appears once per customer
    # it has already acquired, snapshotted per phase so that degree earned
    # in earlier phases carries into later ones.
    attach: list[int] = list(tier1)

    def run_phase(customers: list[int], pool: list[int], dist: Sequence[float]) -> None:
        """Give each customer 1-3 distinct providers, degree-preferentially.

        The provider list ``phase_attach`` (this phase's slice of
        ``attach``) is drawn from with probability 0.75, the uniform
        ``pool`` otherwise, so low-degree providers keep a chance.
        """
        pool_set = set(pool)
        phase_attach = [x for x in attach if x in pool_set]
        size = len(pool)
        bits = size.bit_length()
        one, two = dist[0], dist[0] + dist[1]
        for customer in customers:
            r = draw()
            count = 1 if r < one else 2 if r < two else 3
            want = count if count < size else size
            chosen: set[int] = set()
            guard = 0
            while len(chosen) < want:
                guard += 1
                if phase_attach and draw() < 0.75:
                    m = len(phase_attach)
                    k = m.bit_length()
                    j = getrandbits(k)
                    while j >= m:
                        j = getrandbits(k)
                    chosen.add(phase_attach[j])
                else:
                    j = getrandbits(bits)
                    while j >= size:
                        j = getrandbits(bits)
                    chosen.add(pool[j])
                if guard > 50 * count:  # pathological tiny pools
                    for p in pool:
                        chosen.add(p)
                        if len(chosen) >= count:
                            break
            for provider in chosen:
                add_customer_provider(provider, customer)
            phase_attach.extend(chosen)
            attach.extend(chosen)

    # Regional ISPs buy transit from Tier-1s; access ISPs from regionals
    # and Tier-1s; stubs from any transit ISP, degree-preferentially.
    run_phase(regional, tier1, config.isp_multihoming)
    upstream = regional + tier1 if regional else tier1
    run_phase(access, upstream, config.isp_multihoming)
    all_isps = tier1 + regional + access
    run_phase(stubs, all_isps, config.stub_multihoming)

    # Content providers: Tier-1 transit, no customers.
    for asn in cps:
        for provider in rng.sample(tier1, min(config.cp_providers, len(tier1))):
            add_customer_provider(provider, asn)

    # IXP pools: members are non-Tier-1 ISPs plus edge networks (stubs
    # join IXPs too — they are the peers CPs connect to in [3]).
    ixp_members: list[list[int]] = []
    candidates = regional + access + rng.sample(stubs, int(len(stubs) * 0.15))
    member_count = min(len(candidates), max(2, int(config.n * 0.12)))
    for _ in range(config.num_ixps):
        k = max(2, member_count // max(1, config.num_ixps))
        members = rng.sample(candidates, min(k, len(candidates))) if candidates else []
        ixp_members.append(sorted(members))

    # Peering: IXP-local pairs first, then random same-tier pairs, until
    # the target peering/AS ratio is met.
    target_peerings = int(config.n * config.peering_ratio)

    # ``rng.sample(pool, k)`` with k <= 5 takes its list branch on a pool
    # of at most 21 entries and its set branch above that: each index is
    # drawn as ``choice`` draws one and redrawn while it repeats an earlier
    # index.  Both peering loops inline the set branch draw for draw and
    # keep the library call for small pools.  ``add_peering`` refuses a
    # self-loop or a second edge between two ASes with DuplicateEdgeError:
    # a refused pair is skipped, not counted.
    made = graph.num_peering_edges()
    for members in ixp_members:
        size = len(members)
        bits = size.bit_length()
        k = min(3, size)
        for a in members:
            # each IXP member peers with a few co-located members
            if size <= 21:
                picks = rng.sample(members, k)
            else:
                picks = []  # members are distinct: a repeated member is a repeated index
                while len(picks) < k:
                    j = getrandbits(bits)
                    while j >= size or members[j] in picks:
                        j = getrandbits(bits)
                    picks.append(members[j])
            for b in picks:
                if made >= target_peerings:
                    break
                try:
                    add_peering(a, b)
                except DuplicateEdgeError:
                    continue
                made += 1

    pools = [
        (pool, len(pool), len(pool).bit_length())
        for pool in (regional + tier1, access, regional + access)
    ]
    guard = 0
    while made < target_peerings and guard < 50 * target_peerings:
        guard += 1
        j = getrandbits(2)  # rng.choice(pools)
        while j >= 3:
            j = getrandbits(2)
        pool, size, bits = pools[j]
        if size < 2:
            continue
        if size <= 21:
            a, b = rng.sample(pool, 2)
        else:
            i = getrandbits(bits)
            while i >= size:
                i = getrandbits(bits)
            j = getrandbits(bits)
            while j >= size or j == i:
                j = getrandbits(bits)
            a, b = pool[i], pool[j]
        try:
            add_peering(a, b)
        except DuplicateEdgeError:
            continue
        made += 1

    # CPs peer with a slice of IXP members even in the base graph.
    all_members = sorted({m for members in ixp_members for m in members})
    for cp in cps:
        k = int(len(all_members) * config.cp_base_peering)
        for b in rng.sample(all_members, min(k, len(all_members))):
            try:
                add_peering(cp, b)
            except DuplicateEdgeError:
                pass

    graph.validate()
    return GeneratedTopology(
        graph=graph,
        tier1_asns=tier1,
        cp_asns=cps,
        ixp_members=ixp_members,
        config=config,
    )
