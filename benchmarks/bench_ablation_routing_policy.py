"""Ablation (§8.3): routing policies vs deployment outcomes.

The paper speculates that shortest-path routing "would lead to overly
optimistic results" (shorter paths, maybe larger tiebreak sets) and
that widespread sticky primary/backup providers would make its analysis
"overly optimistic" in the other direction (no competition to exploit).

The bench runs the same deployment game under three routing substrates:

- ``gao-rexford``   — the Appendix-A model (baseline);
- ``sp-first``      — SP > LP ranking;
- ``sticky``        — Gao-Rexford with every multihomed AS pinned to
  its hash-preferred primary (tiebreak sets collapse to singletons).
"""

from __future__ import annotations

import dataclasses

from repro.core.adopters import cps_plus_top_isps
from repro.core.config import SimulationConfig
from repro.core.dynamics import run_deployment
from repro.experiments.report import format_table
from repro.routing.cache import RoutingCache
from repro.routing.policy import get_policy, register_policy
from repro.routing.tiebreak import collect_tiebreak_stats

THETA = 0.05

#: §8.3's sticky primaries with *every* AS pinned, not the registered half
ALL_STICKY = register_policy(dataclasses.replace(
    get_policy("sticky_primaries"), name="all_sticky", sticky_fraction=1.0,
    description="every AS pins a fixed primary next hop (§8.3, the extreme)",
))


def test_ablation_routing_policy(benchmark, env, capsys):
    def run_all():
        graph = env.graph
        adopters = cps_plus_top_isps(graph, 5)
        caches = {
            "gao-rexford": env.cache,
            "sp-first": RoutingCache(graph, policy="sp-first"),
            "sticky": RoutingCache(graph, policy=ALL_STICKY),
        }
        rows = []
        for name, cache in caches.items():
            stats = collect_tiebreak_stats(graph, cache=cache)
            result = run_deployment(
                graph, adopters, SimulationConfig(theta=THETA), cache
            )
            rows.append((
                name,
                stats.mean,
                stats.multi_path_fraction,
                float(result.final_node_secure.mean()),
                result.num_rounds,
            ))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            ["policy", "mean tiebreak", "multi-path", "frac secure", "rounds"],
            [[n, f"{t:.2f}", f"{m:.2f}", f"{s:.3f}", r] for n, t, m, s, r in rows],
            title=f"Ablation: routing policy (theta={THETA:.0%})",
        ))
        print("  paper (§8.3): sticky primaries remove the competition "
              "SecP needs; deployment should collapse toward simplex-only")

    by = {name: (tb, multi, secure, rounds) for name, tb, multi, secure, rounds in rows}
    # no competition -> (much) less adoption than the baseline
    assert by["sticky"][2] <= by["gao-rexford"][2] + 1e-9
    assert by["sticky"][1] == 0.0  # all tiebreak sets singletons
