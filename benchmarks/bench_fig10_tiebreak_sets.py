"""Figure 10: tiebreak-set size distribution (§6.6).

Paper: mean 1.18 over all source-destination pairs (ISPs 1.30, stubs
1.16); only ~20% of sets contain more than one path; distribution is
heavy-tailed on a log-log scale.  Shape: small means, ISP > stub, a
long but thin tail.
"""

from __future__ import annotations

from repro.experiments.report import format_table
from repro.routing.tiebreak import collect_tiebreak_stats


def test_fig10_tiebreak_distribution(benchmark, env, capsys):
    stats = benchmark.pedantic(
        lambda: collect_tiebreak_stats(env.graph, cache=env.cache),
        rounds=1, iterations=1,
    )
    rows = [[size, count] for size, count in sorted(stats.histogram.items())][:12]
    with capsys.disabled():
        print()
        print(format_table(["set size", "pairs"], rows,
                           title="Fig 10: tiebreak-set size histogram"))
        print(f"  mean {stats.mean:.2f} "
              f"(paper 1.18) | ISPs {stats.mean_isp:.2f} (1.30) "
              f"| stubs {stats.mean_stub:.2f} (1.16)")
        print(f"  multi-path pairs: {stats.multi_path_fraction:.1%} (paper ~20%)")

    assert 1.0 <= stats.mean <= 2.0
    assert stats.mean_isp >= stats.mean_stub
    assert stats.multi_path_fraction < 0.5
