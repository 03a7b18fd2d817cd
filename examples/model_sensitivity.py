"""Stress-testing the model's assumptions (Section 8).

Runs the same case study under the paper's discussed extensions and
prints how each moves the outcome:

- routing policy: Gao-Rexford (baseline), SP-first (§8.3), and sticky
  primaries (multihomed ASes never exercise alternatives);
- threshold heterogeneity (§8.2): lognormal noise, degree-scaled;
- pricing (§8.4): tiered flat rates and concave volume discounts;
- topology evolution (§8.4): growth with secure-provider attraction.

Usage::

    python examples/model_sensitivity.py [num_ases]
"""

from __future__ import annotations

import dataclasses
import sys

from repro import build_environment
from repro.core import (
    Pricing,
    PricingModel,
    SimulationConfig,
    cps_plus_top_isps,
    lognormal_thresholds,
    degree_scaled_thresholds,
    run_deployment,
)
from repro.experiments.report import format_table
from repro.routing.cache import RoutingCache
from repro.routing.policy import get_policy, register_policy
from repro.topology.evolution import EvolutionConfig, EvolvingDeployment

THETA = 0.05


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    env = build_environment(n=n, seed=2011, x=0.10)
    graph = env.graph
    adopters = cps_plus_top_isps(graph, 5)
    cfg = SimulationConfig(theta=THETA)
    rows = []

    def record(name, result):
        rows.append([name, f"{float(result.final_node_secure.mean()):.3f}",
                     result.num_rounds])

    record("baseline (Gao-Rexford, linear, uniform theta)",
           run_deployment(graph, adopters, cfg, env.cache))

    sp_cache = RoutingCache(graph, policy="sp-first")
    record("SP-first routing (sec 8.3)",
           run_deployment(graph, adopters, cfg, sp_cache))

    # the registered "sticky_primaries" pins half the ASes; a variant of
    # a policy is another registered policy
    all_sticky = register_policy(dataclasses.replace(
        get_policy("sticky_primaries"), name="all_sticky", sticky_fraction=1.0
    ))
    record("sticky primaries, every AS (sec 8.3)",
           run_deployment(graph, adopters, cfg, RoutingCache(graph, policy=all_sticky)))

    record("lognormal theta, sigma=0.5 (sec 8.2)",
           run_deployment(graph, adopters, cfg, env.cache,
                          thresholds=lognormal_thresholds(graph, THETA, 0.5, seed=1)))
    record("degree-scaled theta (sec 8.2)",
           run_deployment(graph, adopters, cfg, env.cache,
                          thresholds=degree_scaled_thresholds(graph, THETA, 0.5)))

    record("tiered pricing, tier=200 (sec 8.4)",
           run_deployment(graph, adopters, cfg, env.cache,
                          pricing=Pricing(model=PricingModel.TIERED, tier=200.0)))
    record("concave pricing, alpha=0.7 (sec 8.4)",
           run_deployment(graph, adopters, cfg, env.cache,
                          pricing=Pricing(model=PricingModel.CONCAVE, alpha=0.7)))

    print(format_table(
        ["variant", "frac ASes secure", "rounds"],
        rows, title=f"Model sensitivity at theta={THETA:.0%} "
                    f"(same graph, same early adopters)",
    ))

    print()
    print("evolving topology (sec 8.4): three grow-and-deploy epochs")
    driver = EvolvingDeployment(
        graph.copy(), adopters,
        EvolutionConfig(new_stubs=max(5, n // 40), secure_attraction=0.8),
        SimulationConfig(theta=THETA, max_rounds=30),
    )
    for record_ in driver.run(3):
        print(f"  epoch {record_.epoch}: {record_.num_ases} ASes, "
              f"{record_.fraction_secure:.1%} secure")


if __name__ == "__main__":
    main()
