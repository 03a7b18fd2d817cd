"""§6.7: how few routing decisions security needs to influence.

Paper: only ISPs (15% of ASes) need apply SecP, and only ~23% of their
tiebreak sets offer a real choice, so deployment progresses with just
``0.15 x 0.23 ~= 3.5%`` of routing decisions affected by security.
"""

from __future__ import annotations

from repro.routing.tiebreak import (
    collect_tiebreak_stats,
    security_sensitive_decision_fraction,
)


def test_sec67_security_sensitive_fraction(benchmark, env, capsys):
    def measure():
        stats = collect_tiebreak_stats(env.graph, cache=env.cache)
        return stats, security_sensitive_decision_fraction(env.graph, stats)

    stats, fraction = benchmark.pedantic(measure, rounds=1, iterations=1)
    isp_share = len(env.graph.isp_indices) / env.graph.n
    with capsys.disabled():
        print()
        print("Sec 6.7: routing decisions affected by security")
        print(f"  ISP share of ASes          : {isp_share:.1%} (paper: 15%)")
        print(f"  ISP multi-path tiebreak    : "
              f"{stats.multi_path_fraction_isp:.1%} (paper: ~23%)")
        print(f"  security-sensitive decisions: {fraction:.2%} (paper: 3.5%)")
    assert 0.0 < fraction < 0.15
