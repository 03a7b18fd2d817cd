"""AS-graph evolution across deployment epochs (§8.4).

The paper's model freezes the topology and notes: "Because the
time-scale of the deployment process can be quite large (e.g., years),
extensions to our model might also model the evolution of the AS graph
with time, and possibly incorporate issues like the addition of new
edges if secure ASes manage to sign up new customers."

:func:`evolve_graph` applies one epoch of churn — new multihomed stubs
arrive (optionally biased toward secure providers), new peerings form,
and some stub-provider edges move — and
:class:`EvolvingDeployment` interleaves epochs of market-driven
deployment with epochs of growth, carrying the deployer set across
graphs by AS number.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterable

from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole


@dataclasses.dataclass(frozen=True)
class EvolutionConfig:
    """One epoch's worth of topology churn."""

    new_stubs: int = 10
    new_peerings: int = 4
    rehomed_stubs: int = 2
    #: probability a new/rehomed stub insists on at least one *secure*
    #: provider (the §8.4 "secure ASes sign up new customers" effect)
    secure_attraction: float = 0.0
    providers_per_stub: tuple[float, float, float] = (0.5, 0.38, 0.12)

    def __post_init__(self) -> None:
        if not 0.0 <= self.secure_attraction <= 1.0:
            raise ValueError("secure_attraction must be in [0, 1]")
        for field in ("new_stubs", "new_peerings", "rehomed_stubs"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")


def _provider_count(rng: random.Random, dist: tuple[float, float, float]) -> int:
    r = rng.random()
    if r < dist[0]:
        return 1
    if r < dist[0] + dist[1]:
        return 2
    return 3


def _pick_providers(
    rng: random.Random,
    isps: list[int],
    secure_isps: list[int],
    count: int,
    secure_attraction: float,
) -> list[int]:
    chosen: set[int] = set()
    if secure_isps and rng.random() < secure_attraction:
        chosen.add(rng.choice(secure_isps))
    guard = 0
    while len(chosen) < min(count, len(isps)) and guard < 100 * count:
        guard += 1
        chosen.add(rng.choice(isps))
    return list(chosen)


def evolve_graph(
    graph: ASGraph,
    config: EvolutionConfig,
    secure_provider_asns: Iterable[int] = (),
    seed: int = 0,
) -> ASGraph:
    """Return an evolved *copy* of ``graph`` after one epoch of churn."""
    rng = random.Random(seed)
    out = graph.copy()
    roles = out.roles
    isps = [out.asn(i) for i in range(out.n) if roles[i] == int(ASRole.ISP)]
    stubs = [out.asn(i) for i in range(out.n) if roles[i] == int(ASRole.STUB)]
    isp_set = set(isps)
    secure_isps = [a for a in secure_provider_asns if a in isp_set]
    if not isps:
        return out

    next_asn = max(out.asns) + 1
    for _ in range(config.new_stubs):
        asn = next_asn
        next_asn += 1
        out.add_as(asn)
        count = _provider_count(rng, config.providers_per_stub)
        for provider in _pick_providers(
            rng, isps, secure_isps, count, config.secure_attraction
        ):
            out.add_customer_provider(provider=provider, customer=asn)
        stubs.append(asn)

    for _ in range(config.rehomed_stubs):
        if not stubs:
            break
        stub = rng.choice(stubs)
        providers = out.providers_of(stub)
        if len(providers) <= 1:
            continue  # never disconnect a single-homed stub
        out.remove_edge(stub, rng.choice(providers))
        new_provider = _pick_providers(rng, isps, secure_isps, 1,
                                       config.secure_attraction)
        for provider in new_provider:
            if not out.has_edge(stub, provider):
                out.add_customer_provider(provider=provider, customer=stub)

    for _ in range(config.new_peerings):
        if len(isps) < 2:
            break
        a, b = rng.sample(isps, 2)
        if not out.has_edge(a, b):
            out.add_peering(a, b)

    out.validate()
    return out


@dataclasses.dataclass
class EpochRecord:
    """Outcome of one deploy-then-grow epoch."""

    epoch: int
    num_ases: int
    num_secure_ases: int
    deployer_asns: frozenset[int]

    @property
    def fraction_secure(self) -> float:
        return self.num_secure_ases / self.num_ases if self.num_ases else 0.0


class EvolvingDeployment:
    """Interleave market-driven deployment with topology growth.

    Each epoch: run the deployment game to termination on the current
    graph (early adopters = carried-over deployers), then evolve the
    topology.  Deployers persist by AS number; new stubs inherit
    simplex security from their providers as usual.
    """

    def __init__(
        self,
        graph: ASGraph,
        early_adopter_asns: Iterable[int],
        evolution: EvolutionConfig,
        simulation_config=None,
        seed: int = 0,
    ):
        from repro.core.config import SimulationConfig

        self.graph = graph
        self.evolution = evolution
        self.simulation_config = simulation_config or SimulationConfig()
        self.deployer_asns = frozenset(early_adopter_asns)
        self.seed = seed

    def run(self, epochs: int) -> list[EpochRecord]:
        """Run ``epochs`` deploy-then-grow cycles; returns their records."""
        from repro.core.dynamics import DeploymentSimulation

        records: list[EpochRecord] = []
        for epoch in range(1, epochs + 1):
            sim = DeploymentSimulation(
                self.graph, self.deployer_asns, self.simulation_config
            )
            result = sim.run()
            self.deployer_asns = frozenset(
                self.graph.asn(i) for i in result.final_state.deployers
            )
            records.append(
                EpochRecord(
                    epoch=epoch,
                    num_ases=self.graph.n,
                    num_secure_ases=int(result.final_node_secure.sum()),
                    deployer_asns=self.deployer_asns,
                )
            )
            self.graph = evolve_graph(
                self.graph,
                self.evolution,
                secure_provider_asns=self.deployer_asns,
                seed=self.seed + epoch,
            )
        return records
