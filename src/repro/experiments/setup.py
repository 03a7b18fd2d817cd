"""Shared experiment environment: graph, traffic, adopter sets, cache.

Every benchmark and example builds one of these.  The default scale is
far below the paper's 36,964 ASes (pure Python vs a 200-node cluster);
DESIGN.md documents why the structural statistics — degree skew, 85%
stubs, tiny tiebreak sets — are what carry the results, and those are
preserved at this scale.
"""

from __future__ import annotations

import dataclasses
import random

from repro.core.adopters import content_providers, cps_plus_top_isps, random_isps, top_degree_isps
from repro.routing.arena import RoutingArena
from repro.routing.cache import RoutingCache
from repro.runtime.guard import current_guard
from repro.topology.augment import augment_cp_peering
from repro.topology.generator import GeneratedTopology, TopologyConfig, generate_topology
from repro.topology.graph import ASGraph
from repro.topology.traffic import apply_traffic_model


@dataclasses.dataclass
class ExperimentEnv:
    """A ready-to-simulate topology with cache and adopter sets."""

    topology: GeneratedTopology
    graph: ASGraph
    cache: RoutingCache
    x: float
    augmented: bool

    @property
    def tier1_asns(self) -> list[int]:
        return self.topology.tier1_asns

    @property
    def cp_asns(self) -> list[int]:
        return self.topology.cp_asns

    def adopter_sets(self) -> dict[str, list[int]]:
        """The Fig-8 menu of early-adopter sets, scaled to the graph.

        The paper uses {none, top 5..200 by degree, 5 CPs, CPs+top5,
        200 random}; set sizes scale with the ISP population here.
        """
        graph = self.graph
        num_isps = max(1, len(graph.isp_indices))
        big = max(10, num_isps // 3)
        # one degree ranking of the ISPs: every top-k entry is a prefix
        ranked = top_degree_isps(graph, big)
        cps = content_providers(graph)
        return {
            "none": [],
            "top-5": ranked[:5],
            "top-10": ranked[:10],
            f"top-{big}": ranked,
            "5-cps": cps,
            "cps+top-5": cps + ranked[:5],
            f"random-{big}": random_isps(graph, big, seed=7),
        }

    def case_study_adopters(self) -> list[int]:
        """§5's set: the five CPs plus the top five Tier-1s by degree."""
        return cps_plus_top_isps(self.graph, 5)


def build_environment(
    n: int = 1000,
    seed: int = 2011,
    x: float = 0.10,
    augmented: bool = False,
    warm: bool = True,
    workers: int = 1,
    config: TopologyConfig | None = None,
    sample_destinations: int | None = None,
    policy: str = "security_3rd",
    backend: str | None = None,
) -> ExperimentEnv:
    """Generate a topology, apply the traffic model, and warm the cache.

    The warm runs in this process: ``workers`` is accepted and ignored
    (on the default compiled tier a chunk's build is cheaper than
    forking workers to split it; DESIGN.md §10).  ``x`` is the CP
    traffic fraction (§3.1); ``augmented=True`` applies
    the Appendix-D CP-peering augmentation before caching.  ``policy``
    names the routing-policy registry entry the cache is bound to (see
    :func:`repro.routing.policy.available_policies`).

    ``backend`` names the kernel backend the cache dispatches the
    batched routing kernels through (see
    :mod:`repro.routing.backends`); ``None`` defers to the
    ``SBGP_KERNEL_BACKEND`` environment variable, then ``auto`` (cext
    when it loads, else numpy); ``env.cache.backend_name`` is the tier
    that runs.

    ``sample_destinations`` restricts the routing cache to a uniform
    sample of that many destinations: utilities (and hence decisions)
    become sampled estimators of the all-destination quantities, which
    is how runs scale beyond a few thousand ASes.  The paper instead
    refused to subsample ("we chose not to 'sample down'"); the
    estimator's fidelity at small N is measured in
    ``benchmarks/bench_kernel_dest_sampling.py`` so users can judge the
    trade-off the paper avoided.
    """
    topology = generate_topology(config, **({} if config else {"n": n, "seed": seed}))
    graph = topology.graph
    if augmented:
        augment_cp_peering(
            graph,
            topology.all_ixp_member_asns,
            seed=seed,
        )
    apply_traffic_model(graph, x)
    destinations = None
    if sample_destinations is not None and sample_destinations < graph.n:
        rng = random.Random(seed + 17)
        destinations = sorted(rng.sample(range(graph.n), sample_destinations))
    cache = RoutingCache(graph, destinations=destinations, policy=policy, backend=backend)
    if warm:
        guard = current_guard()
        estimate = RoutingArena.estimate_bytes(
            len(cache.destinations), graph.n, backend=cache.backend_name
        )
        if not guard.fits_memory(estimate):
            # last ladder rung: skip the eager warm + arena entirely; the
            # first use (a round's ensure_arena()) runs the warm instead
            guard.degrade(
                "lazy_warm",
                f"eager warm needs ~{estimate} bytes for the pooled arena, "
                "over the memory budget; deferring the warm to the first use",
            )
        else:
            cache.warm()
            cache.ensure_arena()  # pool the trees before the first round
    return ExperimentEnv(
        topology=topology, graph=graph, cache=cache, x=x, augmented=augmented
    )
