"""The set-cover reduction behind Theorem 6.1 (Appendix E, Figure 16).

Choosing the optimal early-adopter set is NP-hard — even to approximate
within a constant factor — by reduction from SET-COVER.  Given subsets
``S_1..S_m`` of a universe ``U`` and budget ``k``, the reduction builds:

- a destination stub ``d``, customer of every *gate* ISP ``s_i1``;
- per subset ``S_i``, the gate ``s_i1`` buying transit from a *carrier*
  ISP ``s_i2`` whose stub customers are the element stubs of ``S_i``;
- per element ``u``, a disjoint private fallback chain
  ``u <- f_u <- x_u -> d`` providing the equally-good default route the
  paper assumes is "preferable to all other routes".

Seeding gate ``s_i1`` secures ``d`` (simplex) and hands its carrier
``s_i2`` a secure route to sell: deploying secures the covered element
stubs, whose ``d``-bound traffic (parked on the fallback by default)
moves to the fully secure route — a guaranteed strict gain.  Unchosen
columns never gain, so the number of secure ASes at termination is
exactly ``1 + 2k + |covered elements|``: maximising adoption *is*
maximising coverage, and approximating it inherits SET-COVER's
inapproximability.

Two engineering notes, mirroring the paper's own assumptions:

- the paper pins default tie-breaks ("lowest AS number"); our engine
  hashes, so the builder pads the node-index space until every element
  stub's default choice is its fallback route;
- the count formula needs elements not to compete with each other
  through shared carriers, so instances should be *linear* hypergraphs
  (no two elements share more than one subset) — e.g. edge covers.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Sequence

from repro.core.config import SimulationConfig, UtilityModel
from repro.core.dynamics import DeploymentSimulation
from repro.routing.cache import RoutingCache
from repro.routing.policy import tie_hash
from repro.topology.graph import ASGraph


@dataclasses.dataclass(frozen=True)
class SetCoverInstance:
    """A SET-COVER instance: cover ``universe`` using ``k`` subsets."""

    universe: tuple[int, ...]
    subsets: tuple[frozenset[int], ...]
    k: int

    def is_linear(self) -> bool:
        """True if no two elements co-occur in more than one subset."""
        seen: set[tuple[int, int]] = set()
        for subset in self.subsets:
            for a, b in itertools.combinations(sorted(subset), 2):
                if (a, b) in seen:
                    return False
                seen.add((a, b))
        return True

    def coverage(self, chosen: Iterable[int]) -> int:
        """Number of elements covered by the chosen subset indices."""
        covered: set[int] = set()
        for idx in chosen:
            covered |= self.subsets[idx]
        return len(covered & set(self.universe))

    def best_cover(self) -> tuple[tuple[int, ...], int]:
        """Brute-force optimal ``k``-subset cover (exponential)."""
        best: tuple[int, ...] = ()
        best_cov = -1
        for combo in itertools.combinations(range(len(self.subsets)), self.k):
            cov = self.coverage(combo)
            if cov > best_cov:
                best, best_cov = combo, cov
        return best, best_cov

    def greedy_cover(self) -> tuple[tuple[int, ...], int]:
        """Classic greedy set cover (the ln-n approximation)."""
        chosen: list[int] = []
        covered: set[int] = set()
        for _ in range(self.k):
            best_idx, best_gain = None, 0
            for idx, subset in enumerate(self.subsets):
                if idx in chosen:
                    continue
                gain = len((subset - covered) & set(self.universe))
                if gain > best_gain:
                    best_idx, best_gain = idx, gain
            if best_idx is None:
                break
            chosen.append(best_idx)
            covered |= self.subsets[best_idx]
        return tuple(chosen), len(covered & set(self.universe))


@dataclasses.dataclass(frozen=True)
class SetCoverNetwork:
    """The reduction graph plus the bookkeeping to read results back."""

    graph: ASGraph
    instance: SetCoverInstance
    dest: int                      # the shared destination stub (AS number)
    gates: tuple[int, ...]         # s_i1 per subset
    carriers: tuple[int, ...]      # s_i2 per subset
    elements: dict[int, int]       # universe element -> stub AS number

    def expected_secure_count(self, chosen_subsets: Sequence[int]) -> int:
        """The reduction's arithmetic: ``1 + 2k + covered``."""
        return 1 + 2 * len(set(chosen_subsets)) + self.instance.coverage(chosen_subsets)

    def secure_count_for(
        self,
        chosen_subsets: Sequence[int],
        cache: RoutingCache | None = None,
        theta: float = 0.0,
    ) -> int:
        """Run the deployment process seeded with the chosen gates and
        return the number of secure ASes at termination."""
        adopters = [self.gates[i] for i in chosen_subsets]
        config = SimulationConfig(
            theta=theta, utility_model=UtilityModel.OUTGOING, max_rounds=20
        )
        sim = DeploymentSimulation(self.graph, adopters, config, cache)
        return int(sim.run().final_node_secure.sum())


def build_set_cover_network(instance: SetCoverInstance) -> SetCoverNetwork:
    """Materialise the Appendix-E reduction for ``instance``."""
    graph = ASGraph()
    next_asn = [0]

    def new_as() -> int:
        next_asn[0] += 1
        graph.add_as(next_asn[0])
        return next_asn[0]

    dest = new_as()
    gates: list[int] = []
    carriers: list[int] = []
    for _ in instance.subsets:
        gates.append(new_as())
        carriers.append(new_as())
    for gate, carrier in zip(gates, carriers):
        graph.add_customer_provider(provider=gate, customer=dest)
        graph.add_customer_provider(provider=carrier, customer=gate)

    elements: dict[int, int] = {}
    for u in instance.universe:
        covering = [
            carriers[i] for i, subset in enumerate(instance.subsets) if u in subset
        ]
        fallback = new_as()   # f_u: the element's private default provider
        relay = new_as()      # x_u: links the fallback chain to d
        graph.add_customer_provider(provider=relay, customer=fallback)
        graph.add_customer_provider(provider=relay, customer=dest)

        # Pad the index space until the element's hash tie-break parks
        # its default d-route on the fallback (the paper instead pins
        # tie-breaks by AS number).
        fallback_idx = graph.index(fallback)
        covering_idx = [graph.index(c) for c in covering]
        for _ in range(512):
            candidate_idx = graph.n  # index the element stub would get
            h_fallback = tie_hash(candidate_idx, fallback_idx)
            if all(h_fallback < tie_hash(candidate_idx, ci) for ci in covering_idx):
                break
            new_as()  # pad: an isolated AS shifts the next index
        else:  # pragma: no cover - probabilistically unreachable
            raise RuntimeError(f"could not steer tie-break for element {u}")

        stub = new_as()
        elements[u] = stub
        graph.add_customer_provider(provider=fallback, customer=stub)
        for carrier in covering:
            graph.add_customer_provider(provider=carrier, customer=stub)

    graph.validate()
    return SetCoverNetwork(
        graph=graph,
        instance=instance,
        dest=dest,
        gates=tuple(gates),
        carriers=tuple(carriers),
        elements=elements,
    )
