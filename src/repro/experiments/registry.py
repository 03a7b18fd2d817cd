"""Named experiment registry: every paper and extension artefact, by id.

Maps experiment ids ("fig3", "table2", "sec83", ...) to runners that
take an :class:`ExperimentEnv`, compute their numbers once and return
``(text, claims)``: the printable text and the artefact's shape claims
as ``{claim name: held}``.  An entry groups the artefacts one
computation feeds: the §5 case-study run renders Figs 3-7 and §5.6, one
sweep Figs 8-9, one tiebreak pass Fig 10 and §6.7, one original and
augmented graph pair Tables 2-4.

``sbgp-sim experiment --id <id>`` prints the text and the claims;
``benchmarks/bench_paper.py`` times every entry and asserts every
claim.  The claims are the paper's shapes at the benchmark scale (500
ASes, seed 2011); on much smaller graphs some may not hold, which the
runner reports rather than raises.  Gadget and protocol artefacts
(Figs 2, 13, 15-17, per-link, evolution, scaling) build their own
networks and ignore ``env``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Any, Callable

import numpy as np

from repro.core.adopters import cps_plus_top_isps
from repro.core.config import SimulationConfig, UtilityModel
from repro.core.diamonds import diamond_census
from repro.core.dynamics import DeploymentSimulation, Outcome, run_deployment
from repro.core.engine import compute_round_data
from repro.core.pricing import Pricing, PricingModel
from repro.core.projection import project_flip
from repro.core.state import DeploymentState, StateDeriver
from repro.core.thresholds import (
    degree_scaled_thresholds,
    lognormal_thresholds,
    uniform_thresholds,
)
from repro.experiments.attack_matrix import run_attack_matrix
from repro.experiments.case_study import run_case_study
from repro.experiments.cp_vs_tier1 import run_cp_vs_tier1
from repro.experiments.report import format_series, format_table
from repro.experiments.scaling import run_scaling_study
from repro.experiments.setup import ExperimentEnv, build_environment
from repro.experiments.sweeps import cells_to_rows, run_sweep, stub_tiebreak_comparison
from repro.experiments.turnoff import (
    per_destination_turn_off_census,
    whole_network_turn_off_census,
)
from repro.routing.cache import RoutingCache
from repro.routing.policy import available_policies, get_policy
from repro.routing.reference import ConvergenceError
from repro.routing.tiebreak import (
    collect_tiebreak_stats,
    security_sensitive_decision_fraction,
)
from repro.security.metrics import end_state_everyone_secure, impact_for_state
from repro.security.scenarios import available_scenarios, available_strategies
from repro.topology.augment import mean_cp_path_length
from repro.topology.stats import summarize

#: a runner's result: the printable text and ``{claim name: held}``
_Result = tuple[str, dict[str, bool]]


@dataclasses.dataclass(frozen=True)
class Experiment:
    """A runnable, named reproduction target."""

    id: str
    title: str
    paper_ref: str
    run: Callable[[ExperimentEnv], _Result]


def _counterpart(env: ExperimentEnv, warm: bool) -> ExperimentEnv:
    """``env``'s topology with the Appendix-D augmentation toggled: the
    same generated graph, traffic share, policy and kernel backend."""
    config = env.topology.config
    dests = len(env.cache.destinations)
    return build_environment(
        config=config, seed=config.seed, x=env.x, augmented=not env.augmented,
        warm=warm, policy=env.cache.policy_name, backend=env.cache.backend_name,
        sample_destinations=dests if dests < env.graph.n else None,
    )


def _table1(env: ExperimentEnv) -> _Result:
    adopters = env.case_study_adopters()
    census = diamond_census(env.graph, adopters, env.cache)
    rows = [[a, census.contested_stubs[a], census.competitor_pairs[a]]
            for a in adopters]
    text = "\n".join([
        format_table(["early adopter", "contested stubs", "competitor pairs"], rows,
                     title="Table 1: diamonds per early adopter"),
        f"total: {census.total_contested} contested stubs, "
        f"{census.total_pairs} competitor pairs",
    ])
    return text, {"table1.contested_stubs_exist": census.total_contested > 0}


def _fig2(env: ExperimentEnv) -> _Result:
    """Steal, regain, both secure: the stealer's spike is temporary."""
    from repro.gadgets.diamond import build_diamond

    net = build_diamond()
    g = net.graph
    config = SimulationConfig(theta=0.02, utility_model=UtilityModel.OUTGOING)
    result = DeploymentSimulation(g, [net.source], config).run()
    stealer = result.rounds[0].turned_on[0]
    regainer = result.rounds[1].turned_on[0]
    lines = [
        "Fig 2: DIAMOND competition",
        f"  round 1: AS {g.asn(stealer)} deploys (steals the Tier-1 traffic)",
        f"  round 2: AS {g.asn(regainer)} deploys (regains its traffic)",
    ]
    for label, node in (("stealer", stealer), ("regainer", regainer)):
        start = result.starting_utilities[node]
        history = result.utility_history(node)
        if start > 0:
            lines.append(f"  {label} normalised utility: "
                         + " ".join(f"{u / start:.2f}" for u in history))
        else:  # the hash-disfavoured ISP starts with zero traffic
            lines.append(f"  {label} raw utility (starts at 0): "
                         + " ".join(f"{u:.0f}" for u in history))
    secure = result.final_node_secure
    return "\n".join(lines), {
        "fig2.left_ends_secure": bool(secure[g.index(net.left)]),
        "fig2.right_ends_secure": bool(secure[g.index(net.right)]),
    }


def _fig3(env: ExperimentEnv) -> _Result:
    """The §5 case study (theta=5%, CPs + top-5 Tier-1s) and everything
    read off its run: Figs 3-7, the §5.6 zero-sum analysis, the traffic
    it moves (conclusion) and random-hijack impact along it (§2.2.1)."""
    from repro.routing.flows import deployment_traffic_shift

    report = run_case_study(env, theta=0.05)
    result = report.result
    g = env.graph
    lines = [
        "Fig 3: deployment per round (case study, theta=5%)",
        "  " + format_series("newly secure ASes", report.fig3_new_ases, "{:d}"),
        "  " + format_series("adopting ISPs    ", report.fig3_new_isps, "{:d}"),
        f"  final: {report.fraction_secure_ases:.1%} of ASes secure after "
        f"{result.num_rounds} rounds (paper: 85% after ~28 rounds at 36K scale)",
        "",
        "Fig 4: focal ISP utilities, normalised by starting utility",
    ]
    fig4 = report.fig4_utilities
    lines += ["  " + format_series(label, s, "{:.3f}") for label, s in fig4.items()]

    med_u, med_p = report.fig5_median_utility, report.fig5_median_projected
    pairs = [(u, p) for u, p in zip(med_u, med_p)
             if not (math.isnan(u) or math.isnan(p))]
    lines += [
        "",
        "Fig 5: per-round medians over next-round adopters",
        "  " + format_series("median utility  ", med_u, "{:.3f}"),
        "  " + format_series("median projected", med_p, "{:.3f}"),
        "",
        "Fig 6: cumulative fraction of ISPs secure, by total degree",
    ]
    buckets = report.fig6_adoption_by_bucket
    lines += ["  " + format_series(label, s, "{:.2f}") for label, s in buckets.items()]
    finals = [series[-1] for series in buckets.values()]

    chains = report.fig7_chains
    lines += ["", f"Fig 7: {len(chains)} neighbor-enabled adoptions found"]
    lines += [
        f"  round {k}: AS {g.asn(adopter)} deploys after neighbor "
        f"AS {g.asn(enabler)} deployed in round {k - 1}"
        for enabler, adopter, k in chains[:5]
    ]

    zs = report.zero_sum
    lines += [
        "",
        "Sec 5.6: zero-sum outcomes (final vs starting utility)",
        f"  ISPs ending > (1+theta) x start: "
        f"{zs.fraction_isps_above_threshold:.1%} (paper: 8%)",
        f"  secure ISPs mean final/start  : {zs.mean_final_over_start_secure:.3f}",
        f"  insecure ISPs mean final/start: "
        f"{zs.mean_final_over_start_insecure:.3f} (paper: 0.87)",
    ]

    deriver = StateDeriver(g, stub_breaks_ties=True, compiled=env.cache.compiled)
    empty = DeploymentState(frozenset(), frozenset())
    shift = deployment_traffic_shift(env.cache, deriver, empty, result.final_state)
    lines += [
        "",
        "Traffic shift: insecure start -> case-study final state",
        f"  links carrying traffic: {shift.num_links_before} -> {shift.num_links_after}",
        f"  links with changed load: {shift.links_changed} "
        f"(new: {shift.new_links}, dropped: {shift.dropped_links})",
        f"  traffic moved onto different links: {shift.moved_fraction:.1%} "
        f"of all carried volume",
    ]

    mid_round = max(1, result.num_rounds // 2)
    states = [
        ("insecure internet", empty, False),
        (f"mid-deployment (round {mid_round})", result.rounds[mid_round - 1].state, False),
        ("case-study final", result.final_state, False),
        ("end state + validation filtering", end_state_everyone_secure(g), True),
    ]
    rows, fooled = [], []
    for name, state, drop in states:
        impact = impact_for_state(g, deriver, state, samples=12, seed=4,
                                  drop_unvalidated=drop)
        secure = 1.0 if drop else float(deriver.node_secure(state).mean())
        fooled.append(impact.mean_fraction_fooled)
        rows.append([name, f"{secure:.2f}", f"{impact.mean_fraction_fooled:.3f}"])
    lines += [
        "",
        format_table(["state", "secure ASes", "mean fraction fooled"], rows,
                     title="Attack impact vs deployment (random origin hijacks)"),
        "  paper: ~50% fooled today; end state leaves only each attacker's "
        "own stub cone",
    ]
    insecure, end = fooled[0], fooled[-1]
    return "\n".join(lines), {
        "fig3.round1_ases_cover_isps": report.fig3_new_ases[0] >= report.fig3_new_isps[0],
        "fig3.majority_secure": report.fraction_secure_ases > 0.5,
        "fig4.focal_isps_found": bool(fig4),
        "fig4.stealer_spikes": all(
            max(s) > 1.0 for label, s in fig4.items() if label.startswith("stealer")
        ),
        "fig4.holdout_ends_below_start": all(
            s[-1] < 1.0 for label, s in fig4.items() if label.startswith("holdout")
        ),
        "fig5.adopting_rounds_exist": bool(pairs),
        "fig5.projected_above_current": all(p > u for u, p in pairs),
        "fig6.top_bucket_adopts_most": finals[-1] >= finals[0],
        "fig7.chain_reactions_exist": bool(chains),
        "sec56.few_isps_gain_past_theta": zs.fraction_isps_above_threshold < 0.5,
        "sec56.holdouts_lose": zs.mean_final_over_start_insecure <= 1.0,
        "sec56.deployers_beat_holdouts": (
            zs.mean_final_over_start_secure >= zs.mean_final_over_start_insecure
        ),
        "shift.traffic_moves": shift.moved_load > 0,
        "shift.tie_break_not_rewrite": shift.moved_fraction < 0.8,
        "sec221.insecure_fools_a_quarter": insecure > 0.25,
        "sec221.end_state_fools_few": end < 0.05,
        "sec221.end_state_beats_insecure": end < insecure,
    }


def _fig8(env: ExperimentEnv) -> _Result:
    """Adoption (8a/8b) and secure paths (9) across theta and adopter sets."""
    cells = run_sweep(env, thetas=(0.0, 0.05, 0.10, 0.30, 0.50))
    text = format_table(
        ["adopters", "theta", "frac ASes", "frac ISPs", "frac paths",
         "f^2", "rounds", "outcome"],
        cells_to_rows(cells),
        title="Fig 8/9: adoption and secure paths vs theta",
    )
    low = [c for c in cells if c.theta <= 0.05 and c.adopters != "none"]
    by_set: dict[str, list[float]] = {}
    for c in cells:
        by_set.setdefault(c.adopters, []).append(c.fraction_secure_ases)
    return text, {
        "fig8.low_theta_majority": max(c.fraction_secure_ases for c in low) > 0.5,
        "fig8.adoption_falls_with_theta": all(
            series[0] >= series[-1] - 1e-9 for series in by_set.values()
        ),
        "fig8.isps_collapse_harder_at_high_theta": all(
            c.fraction_isps_by_market <= c.fraction_secure_ases + 1e-9
            for c in cells if c.theta >= 0.30
        ),
        "fig9.paths_at_most_f2": all(
            c.fraction_secure_paths <= c.f_squared + 1e-9 for c in cells
        ),
        "fig9.paths_track_f2": all(
            c.fraction_secure_paths >= 0.6 * c.f_squared
            for c in cells if c.fraction_secure_ases > 0.6
        ),
    }


def _fig10(env: ExperimentEnv) -> _Result:
    """One tiebreak pass: the Fig 10 distribution and the §6.7 number."""
    stats = collect_tiebreak_stats(env.graph, cache=env.cache)
    fraction = security_sensitive_decision_fraction(env.graph, stats)
    isp_share = len(env.graph.isp_indices) / env.graph.n
    rows = [[size, count] for size, count in sorted(stats.histogram.items())][:12]
    text = "\n".join([
        format_table(["set size", "pairs"], rows,
                     title="Fig 10: tiebreak-set size histogram"),
        f"  mean tiebreak set {stats.mean:.2f} (paper 1.18) | "
        f"ISPs {stats.mean_isp:.2f} (1.30) | stubs {stats.mean_stub:.2f} (1.16)",
        f"  multi-path pairs: {stats.multi_path_fraction:.1%} (paper ~20%)",
        "Sec 6.7: routing decisions affected by security",
        f"  ISP share of ASes           : {isp_share:.1%} (paper: 15%)",
        f"  ISP multi-path tiebreak     : {stats.multi_path_fraction_isp:.1%} "
        f"(paper: ~23%)",
        f"  security-sensitive decisions: {fraction:.2%} (paper: 3.5%)",
    ])
    return text, {
        "fig10.mean_tiebreak_small": 1.0 <= stats.mean <= 2.0,
        "fig10.isps_see_more_choice": stats.mean_isp >= stats.mean_stub,
        "fig10.multi_path_minority": stats.multi_path_fraction < 0.5,
        "sec67.few_decisions_need_security": 0.0 < fraction < 0.15,
    }


def _fig11(env: ExperimentEnv) -> _Result:
    thetas = (0.05, 0.30)
    sets = {"cps+top-5": env.adopter_sets()["cps+top-5"]}
    comparison = stub_tiebreak_comparison(env, thetas=thetas, adopter_sets=sets)
    rows = [
        [f"{theta:.2f}", f"{on.fraction_secure_ases:.3f}",
         f"{off.fraction_secure_ases:.3f}",
         f"{abs(on.fraction_secure_ases - off.fraction_secure_ases):.3f}"]
        for theta, on, off in zip(thetas, comparison[True], comparison[False])
    ]
    text = format_table(
        ["theta", "stubs break ties", "stubs ignore security", "|diff|"],
        rows, title="Fig 11: sensitivity to stub tie-breaking",
    )
    return text, {"fig11.stub_tiebreak_immaterial": all(float(r[3]) < 0.15 for r in rows)}


def _fig12(env: ExperimentEnv) -> _Result:
    """CPs vs Tier-1s across traffic shares (12a) and, at x=10% and
    theta=5%, on the original vs the augmented graph (12b)."""
    cells = run_cp_vs_tier1(env, thetas=(0.0, 0.05, 0.30), x_values=(0.10, 0.50))
    text_a = format_table(
        ["x", "adopters", "theta", "frac ASes", "frac ISPs"],
        [[f"{c.x:.2f}", c.adopters, f"{c.theta:.2f}",
          f"{c.fraction_secure_ases:.3f}", f"{c.fraction_secure_isps:.3f}"]
         for c in cells],
        title="Fig 12a: CPs vs Tier-1s across traffic volumes",
    )

    def frac(x: float, who: str, theta: float) -> float:
        return next(c.fraction_secure_ases for c in cells
                    if c.x == x and c.adopters == who and c.theta == theta)

    other = run_cp_vs_tier1(_counterpart(env, warm=True), thetas=(0.05,), x_values=(0.10,))
    by_graph = {
        env.augmented: [c for c in cells if c.x == 0.10 and c.theta == 0.05],
        not env.augmented: other,
    }
    text_b = format_table(
        ["graph", "adopters", "frac ASes"],
        [["augmented" if augmented else "original", c.adopters,
          f"{c.fraction_secure_ases:.3f}"]
         for augmented in (False, True) for c in by_graph[augmented]],
        title="Fig 12b: original vs augmented graph (theta=5%, x=10%)",
    )
    cp_orig, cp_aug = (
        next(c.fraction_secure_ases for c in by_graph[augmented] if c.adopters == "5-cps")
        for augmented in (False, True)
    )
    return text_a + "\n\n" + text_b, {
        "fig12a.cps_gain_with_traffic_share":
            frac(0.50, "5-cps", 0.05) >= frac(0.10, "5-cps", 0.05) - 1e-9,
        "fig12b.augmentation_keeps_cp_reach": cp_aug >= cp_orig - 0.1,
    }


def _fig13(env: ExperimentEnv) -> _Result:
    """AS 4755's buyer's remorse: turning S*BGP off moves the CP's
    traffic to its stubs onto a customer edge (incoming utility)."""
    from repro.gadgets.buyers_remorse import build_buyers_remorse

    net = build_buyers_remorse(num_stubs=24, cp_weight=821.0)
    g = net.graph
    cache = RoutingCache(g)
    deriver = StateDeriver(g, stub_breaks_ties=False, compiled=cache.compiled)
    focal = g.index(net.focal)
    adopters = frozenset([g.index(net.cp), g.index(net.upstream)])
    state = DeploymentState.initial(adopters).with_flips(turn_on=[focal])
    rd = compute_round_data(cache, deriver, state, UtilityModel.INCOMING)
    on = float(rd.utilities[focal])
    off = project_flip(cache, deriver, rd, focal, turning_on=False,
                       model=UtilityModel.INCOMING).utility
    gain = off - on
    stubs = len(net.stubs)
    text = "\n".join([
        "Fig 13: AS-4755 buyer's remorse (incoming utility)",
        f"  utility running S*BGP : {on:10.0f}",
        f"  utility after turn-off: {off:10.0f}",
        f"  gain: +{gain:.0f} over {stubs} stub destinations "
        f"(~{gain / stubs:.0f} per stub; paper: +205% per stub)",
    ])
    return text, {
        "fig13.turning_off_pays": off > on,
        "fig13.most_of_w_cp_moves_per_stub": gain / stubs > 500,
    }


def _fig14(env: ExperimentEnv) -> _Result:
    sets = env.adopter_sets()
    cells = run_sweep(
        env, thetas=(0.0,),
        adopter_sets={name: sets[name] for name in ("top-5", "cps+top-5", "5-cps")},
        collect_projection_accuracy=True,
    )
    rows = [
        [c.adopters, len(c.projection_ratios),
         f"{np.median(c.projection_ratios):.3f}",
         f"{np.percentile(c.projection_ratios, 80):.3f}",
         f"{np.percentile(c.projection_ratios, 90):.3f}"]
        for c in cells if c.projection_ratios
    ]
    ratios = np.asarray([r for c in cells for r in c.projection_ratios])
    text = "\n".join([
        format_table(["adopters", "samples", "median", "p80", "p90"], rows,
                     title="Fig 14: projected / realised utility (theta=0)"),
        "  paper: 80% of ISPs overestimate by <2%, 90% by <6.7%",
    ])
    enough = len(ratios) > 10
    return text, {
        "fig14.enough_adopters": enough,
        "fig14.median_ratio_near_one": enough and bool(abs(np.median(ratios) - 1.0) < 0.1),
        "fig14.p80_ratio_below_1_5": enough and bool(np.percentile(ratios, 80) < 1.5),
    }


def _fig15(env: ExperimentEnv) -> _Result:
    """The attack a partially-secure-path preference would create."""
    from repro.gadgets.attack_network import build_attack_network
    from repro.protocol.attacks import evaluate_attack

    network = build_attack_network()
    outcomes = {
        prefers: evaluate_attack(
            network.build_protocol_network(p_prefers_partial=prefers),
            victim=network.p, attacker=network.m, prefix=network.prefix,
        )
        for prefers in (False, True)
    }
    lines = ["Fig 15: partially-secure path attack (victim p, attacker m)"]
    for prefers, out in outcomes.items():
        ranking = "partial-preferred" if prefers else "paper's rule"
        verdict = "ATTACKER WINS" if out.attacker_on_path else "resists"
        lines.append(f"  {ranking:18s}: path {out.chosen_path} -> {verdict}")
    return "\n".join(lines), {
        "fig15.paper_rule_resists": not outcomes[False].attacker_on_path,
        "fig15.partial_preference_is_attacked": bool(outcomes[True].attacker_on_path),
    }


def _fig16(env: ExperimentEnv) -> _Result:
    """Theorem 6.1's reduction: secure ASes = 1 + 2k + covered elements,
    so optimal adoption is optimal set cover."""
    from repro.gadgets.hardness import SetCoverInstance, build_set_cover_network

    instance = SetCoverInstance(
        universe=(1, 2, 3, 4, 5, 6, 7, 8),
        subsets=(
            frozenset({1, 2, 3}), frozenset({4, 5}), frozenset({6, 7}),
            frozenset({3, 8}), frozenset({8}),
        ),
        k=3,
    )
    net = build_set_cover_network(instance)
    cache = RoutingCache(net.graph)
    results = [
        (combo, net.secure_count_for(combo, cache), net.expected_secure_count(combo))
        for combo in itertools.combinations(range(len(instance.subsets)), instance.k)
    ]
    best_combo = max(results, key=lambda r: r[1])[0]
    text = "\n".join([
        format_table(
            ["gates chosen", "secure ASes", "1+2k+covered", "covered"],
            [[str(combo), secure, expected, instance.coverage(combo)]
             for combo, secure, expected in results],
            title="Fig 16: adoption count == set-cover arithmetic",
        ),
        f"  greedy cover: {instance.greedy_cover()}, "
        f"optimal cover: {instance.best_cover()}",
    ])
    return text, {
        "fig16.instance_is_linear": instance.is_linear(),
        "fig16.secure_count_is_cover_arithmetic": all(s == e for _, s, e in results),
        "fig16.best_adoption_is_best_cover":
            instance.coverage(best_combo) == instance.best_cover()[1],
    }


def _fig17(env: ExperimentEnv) -> _Result:
    """The chicken gadget cycles under incoming utility (Theorem 7.1)."""
    from repro.gadgets.oscillator import build_chicken

    net = build_chicken()
    g = net.graph
    config = SimulationConfig(theta=0.0, utility_model=UtilityModel.INCOMING, max_rounds=30)
    result = DeploymentSimulation(g, net.fixed_on, config, player_asns=list(net.players)).run()
    lines = ["Fig 17: oscillator (incoming utility, theta=0)"]
    for record in result.rounds:
        on = sorted(g.asn(i) for i in record.turned_on)
        off = sorted(g.asn(i) for i in record.turned_off)
        lines.append(f"  round {record.index}: ON {on or '-'} OFF {off or '-'}")
    lines.append(f"  outcome: {result.outcome.value} (paper: no stable state exists)")
    return "\n".join(lines), {"fig17.oscillates": result.outcome is Outcome.OSCILLATION}


def _table2(env: ExperimentEnv) -> _Result:
    """Appendix D on one original and augmented pair: graph composition
    (Table 2), CP path lengths (Table 3), Tier-1 vs CP degrees (Table 4)."""
    other = _counterpart(env, warm=False)
    base, aug = (other, env) if env.augmented else (env, other)
    stats = {"original": summarize(base.graph), "augmented": summarize(aug.graph)}
    table2 = format_table(
        ["graph", "ASes", "stubs", "ISPs", "CPs", "cust-prov", "peerings"],
        [[name, s.num_ases, s.num_stubs, s.num_isps, s.num_cps,
          s.num_customer_provider_edges, s.num_peering_edges]
         for name, s in stats.items()],
        title="Table 2: graph composition (paper: 36,964 / 72,848 / 38,829)",
    )
    paths = [(cp, mean_cp_path_length(base.graph, cp), mean_cp_path_length(aug.graph, cp))
             for cp in base.cp_asns]
    table3 = format_table(
        ["CP", "original", "augmented"],
        [[cp, f"{b:.2f}", f"{a:.2f}"] for cp, b, a in paths],
        title="Table 3: CP mean path lengths (paper: 2.7-6.9 -> ~2.1)",
    )
    degrees = {
        kind: [(a, base.graph.degree(a), aug.graph.degree(a)) for a in asns]
        for kind, asns in (("tier1", base.tier1_asns[:5]), ("cp", base.cp_asns))
    }
    table4 = format_table(
        ["kind", "AS", "deg original", "deg augmented"],
        [[kind, a, b, c] for kind, rows in degrees.items() for a, b, c in rows],
        title="Table 4: Tier-1 vs CP degrees",
    )
    s, a = stats["original"], stats["augmented"]
    cps = degrees["cp"]
    return "\n\n".join([table2, table3, table4]), {
        "table2.stubs_near_85pct": abs(s.stub_fraction - 0.85) < 0.05,
        "table2.cust_prov_edges_near_2n":
            1.4 <= s.num_customer_provider_edges / s.num_ases <= 2.6,
        "table2.augmentation_adds_peerings": a.num_peering_edges > s.num_peering_edges,
        "table3.cp_paths_shorten": all(after <= before + 1e-9 for _, before, after in paths),
        "table4.cp_degrees_only_grow": all(after >= before for _, before, after in cps),
        "table4.cps_provide_no_transit": all(
            aug.graph.customers_of(asn) == [] for asn, _, _ in cps
        ),
        "table4.most_cps_multiply_degree":
            sum(1 for _, before, after in cps if after >= 3 * max(1, before)) >= 3,
    }


def _sec73(env: ExperimentEnv) -> _Result:
    """Turn-off incentives (incoming utility) in the outgoing game's
    wide-deployment end state: per destination vs whole network."""
    config = SimulationConfig(theta=0.05, utility_model=UtilityModel.OUTGOING)
    sim = DeploymentSimulation(env.graph, env.case_study_adopters(), config, env.cache)
    state = sim.run().final_state
    whole = whole_network_turn_off_census(env, state, stub_breaks_ties=True)
    per_dest = per_destination_turn_off_census(env, state, stub_breaks_ties=True)
    lines = [
        "Sec 7.3: turn-off incentive census (incoming utility, deployed state)",
        f"  secure ISPs examined          : {per_dest.num_secure_isps}",
        f"  whole-network incentive       : {whole.num_with_incentive} "
        f"({whole.fraction:.1%}; paper: rare)",
        f"  >=1 per-destination incentive : {per_dest.num_with_incentive} "
        f"({per_dest.fraction:.1%}; paper: >=10% of ISPs)",
    ]
    if per_dest.examples:
        lines.append(f"  examples: {list(per_dest.examples)[:5]}")
    return "\n".join(lines), {
        "sec73.per_destination_covers_whole_network":
            per_dest.num_with_incentive >= whole.num_with_incentive,
        "sec73.secure_isps_examined": per_dest.num_secure_isps > 0,
        "sec73.per_destination_incentives_exist": per_dest.num_with_incentive > 0,
    }


def _sec83(env: ExperimentEnv) -> _Result:
    """Policy ablation: the case study re-run under every registered
    ranking plus §8.3's extreme, every AS pinned to a sticky primary
    (rounds capped: this is a comparison, not a full sweep).

    Each policy gets a *fresh* cache: a :class:`RoutingCache` is bound
    to one policy for its lifetime, so structures can never be shared
    across rankings.  ``security_1st`` may fail to converge on some
    topologies (Lychev et al.); that outcome is reported, not raised.
    The all-sticky variant is passed as a policy object and never
    registered, so it does not join ``available_policies()``.
    """
    all_sticky = dataclasses.replace(
        get_policy("sticky_primaries"), name="all_sticky", sticky_fraction=1.0,
        description="every AS pins a fixed primary next hop (§8.3, the extreme)",
    )
    adopters = env.case_study_adopters()
    dests = list(env.cache.destinations)
    rows = []
    secure: dict[str, float] = {}
    multi: dict[str, float] = {}
    for pol in [get_policy(name) for name in available_policies()] + [all_sticky]:
        cache = RoutingCache(env.graph, destinations=dests, policy=pol)
        stats = collect_tiebreak_stats(env.graph, cache=cache)
        multi[pol.name] = stats.multi_path_fraction
        row: list[object] = [pol.name, pol.ranking_str(), f"{stats.mean:.2f}",
                             f"{stats.multi_path_fraction:.2f}"]
        config = SimulationConfig(theta=0.05, max_rounds=12, policy=pol)
        try:
            result = DeploymentSimulation(env.graph, adopters, config, cache).run()
        except ConvergenceError:
            rows.append(row + ["-", "-", "no-convergence"])
            continue
        secure[pol.name] = float(result.final_node_secure.mean())
        rows.append(row + [f"{secure[pol.name]:.3f}", result.num_rounds,
                           result.outcome.value])
    text = "\n".join([
        format_table(
            ["policy", "ranking", "mean tiebreak", "multi-path", "frac secure",
             "rounds", "outcome"],
            rows,
            title="Sec 8.3 / Lychev et al.: adoption by routing policy (12-round cap)",
        ),
        "  paper (§8.3): sticky primaries remove the competition SecP needs; "
        "deployment should collapse toward simplex-only",
    ])
    return text, {
        "sec83.sticky_primaries_adopt_no_more":
            secure.get("all_sticky", math.nan)
            <= secure.get("security_3rd", math.nan) + 1e-9,
        "sec83.sticky_tiebreak_sets_singletons": multi["all_sticky"] == 0.0,
    }


def _attack_matrix(env: ExperimentEnv) -> _Result:
    """The full attack × policy × deployment-strategy grid in one run.

    Every registered scenario × every registered routing policy ×
    every registered deployment strategy, at three deployment levels,
    on one shared seeded pair sample.  The printed table pivots the
    *mid* deployment level (at full deployment the static orderings all
    coincide): one row per (scenario, strategy), one column of mean
    fraction fooled per policy; ``-`` marks policies that failed to
    converge under that scenario (reported, not raised).
    """
    cells = run_attack_matrix(env, levels=(0.0, 0.5, 1.0), samples=6)
    by_key = {c.key: c for c in cells}
    grid = sorted({c.level for c in cells})
    top = grid[len(grid) // 2]
    policies = available_policies()
    rows = []
    fooled: dict[tuple[str, str, str], float] = {}
    for scenario in available_scenarios():
        for strategy in available_strategies():
            row: list[object] = [scenario, strategy]
            for policy in policies:
                cell = by_key[(scenario, policy, strategy, top)]
                if cell.outcome == "ok":
                    fooled[(scenario, strategy, policy)] = cell.mean_fraction_fooled
                    row.append(f"{cell.mean_fraction_fooled:.3f}")
                else:
                    row.append("-")
            rows.append(row)
    text = format_table(
        ["scenario", "strategy", *policies], rows,
        title=(
            f"Attack matrix: mean fraction fooled at deployment level "
            f"{top:g} ({len(cells)} cells total)"
        ),
    )
    strategies = available_strategies()
    subprefix = [
        [v for (sc, st, _), v in fooled.items() if sc == "subprefix_hijack" and st == s]
        for s in strategies
    ]
    return text, {
        # Lychev et al.: ranking security first is what buys hijack
        # protection (a cell that did not converge fails the claim)
        "attack_matrix.security_1st_fools_no_more_than_3rd": all(
            fooled.get(("origin_hijack", s, "security_1st"), math.nan)
            <= fooled.get(("origin_hijack", s, "security_3rd"), math.nan) + 1e-9
            for s in strategies
        ),
        # a more specific prefix wins whatever the ranking
        "attack_matrix.subprefix_hijack_ignores_policy": all(
            max(vs) - min(vs) < 1e-9 for vs in subprefix
        ),
    }


def _forecast(env: ExperimentEnv) -> _Result:
    """§8.2 local forecasts: the error eps of a shadow configuration
    that lets neighbours up to ``horizon`` hops re-decide, against the
    exact projection, for 25 not-yet-secure ISPs."""
    from repro.core.forecast import forecast_error_study

    horizons = (0, 1, 2, 4)
    deriver = StateDeriver(env.graph, compiled=env.cache.compiled)
    adopters = frozenset(env.graph.index(a) for a in env.case_study_adopters())
    rd = compute_round_data(env.cache, deriver, DeploymentState.initial(adopters),
                            UtilityModel.OUTGOING)
    isps = [i for i in env.graph.isp_indices if i not in adopters][:25]
    rows = []
    for horizon in horizons:
        fcs = forecast_error_study(env.cache, deriver, rd, isps, horizon=horizon)
        eps = np.array([abs(f.epsilon) for f in fcs])
        rows.append((horizon, float(eps.mean()), float(eps.max())))
    text = "\n".join([
        format_table(["shadow horizon", "mean |eps|", "max |eps|"],
                     [[h, f"{m:.4f}", f"{x:.4f}"] for h, m, x in rows],
                     title="Sec 8.2: local-forecast error vs shadow-configuration depth"),
        "  fold eps into theta: a 1-hop shadow config costs a few percent "
        "of threshold accuracy",
    ])
    by = {h: m for h, m, _ in rows}
    return text, {
        "forecast.deeper_shadows_err_less": by[horizons[-1]] <= by[0] + 1e-9,
        "forecast.depth4_near_exact": by[horizons[-1]] < 0.02,
    }


def _ablation(
    env: ExperimentEnv, title: str, header: str, runs: dict[str, dict[str, Any]]
) -> tuple[str, dict[str, float]]:
    """The case-study game (CPs + top-5, theta=5%) once per variant:
    ``runs`` maps a label to :func:`run_deployment` keyword arguments."""
    adopters = cps_plus_top_isps(env.graph, 5)
    rows, secure = [], {}
    for name, kwargs in runs.items():
        result = run_deployment(env.graph, adopters, SimulationConfig(theta=0.05),
                                env.cache, **kwargs)
        secure[name] = float(result.final_node_secure.mean())
        rows.append([name, f"{secure[name]:.3f}", result.num_rounds])
    return format_table([header, "frac secure", "rounds"], rows, title=title), secure


def _thresholds(env: ExperimentEnv) -> _Result:
    """§8.2 heterogeneous thresholds, all with median theta = 5%."""
    g = env.graph
    text, secure = _ablation(env, "Ablation: theta heterogeneity (median theta=5%)",
                             "threshold profile", {
        "uniform": {"thresholds": uniform_thresholds(g, 0.05)},
        "lognormal s=0.3": {"thresholds": lognormal_thresholds(g, 0.05, 0.3, seed=1)},
        "lognormal s=1.0": {"thresholds": lognormal_thresholds(g, 0.05, 1.0, seed=1)},
        "degree-scaled": {"thresholds": degree_scaled_thresholds(g, 0.05, 0.5)},
    })
    return text, {
        "thresholds.mild_noise_keeps_cascade":
            secure["lognormal s=0.3"] > 0.5 * secure["uniform"],
    }


def _pricing(env: ExperimentEnv) -> _Result:
    """§8.4 pricing between traffic and revenue: linear, flat-rate
    tiers of growing size, and a volume discount."""
    text, secure = _ablation(env, "Ablation: pricing model (theta=5%)", "pricing", {
        "linear": {"pricing": Pricing(model=PricingModel.LINEAR)},
        "tiered (tier=20)": {"pricing": Pricing(model=PricingModel.TIERED, tier=20.0)},
        "tiered (tier=200)": {"pricing": Pricing(model=PricingModel.TIERED, tier=200.0)},
        "concave (a=0.7)": {"pricing": Pricing(model=PricingModel.CONCAVE, alpha=0.7)},
    })
    coarse = secure["tiered (tier=200)"]
    return text, {
        "pricing.coarse_tiers_below_fine": coarse <= secure["tiered (tier=20)"] + 1e-9,
        "pricing.coarse_tiers_below_linear": coarse <= secure["linear"] + 1e-9,
    }


def _evolution(env: ExperimentEnv) -> _Result:
    """§8.4 evolving graph: deployment epochs interleaved with growth,
    neutral vs new stubs insisting on a secure provider."""
    from repro.topology.evolution import EvolutionConfig, EvolvingDeployment
    from repro.topology.generator import generate_topology

    results = {}
    for attraction in (0.0, 1.0):
        base = generate_topology(n=250, seed=77)
        results[attraction] = EvolvingDeployment(
            base.graph,
            early_adopter_asns=base.tier1_asns[:4],
            evolution=EvolutionConfig(new_stubs=15, new_peerings=4, rehomed_stubs=3,
                                      secure_attraction=attraction),
            simulation_config=SimulationConfig(theta=0.10, max_rounds=30),
            seed=5,
        ).run(3)
    text = format_table(
        ["secure attraction", "epoch", "ASes", "secure", "fraction"],
        [[f"{attraction:.0f}", r.epoch, r.num_ases, r.num_secure_ases,
          f"{r.fraction_secure:.3f}"]
         for attraction, records in results.items() for r in records],
        title="Evolution: growth with/without secure-provider pull",
    )
    neutral, attracted = results[0.0][-1], results[1.0][-1]
    return text, {
        "evolution.same_growth": attracted.num_ases == neutral.num_ases,
        "evolution.attraction_keeps_security":
            attracted.fraction_secure >= neutral.fraction_secure - 0.05,
    }


def _perlink(env: ExperimentEnv) -> _Result:
    """Theorem J.1's DILEMMA: the best choice for one contested link
    flips with the flow weights (incoming utility)."""
    from repro.core.perlink import best_link_deployment, utility_with_links
    from repro.gadgets.dilemma import build_dilemma

    rows, outcomes = [], []
    for w_a, w_b in ((100.0, 60.0), (60.0, 400.0)):
        net = build_dilemma(w_a=w_a, w_b=w_b)
        g = net.graph
        deriver = StateDeriver(g, stub_breaks_ties=True)
        sec = deriver.node_secure(
            DeploymentState.initial(frozenset(g.index(a) for a in net.secure_asns))
        )
        brk = deriver.breaks_ties(sec)
        x, up = g.index(net.x), g.index(net.up)
        on = utility_with_links(g, sec, brk, x, None, UtilityModel.INCOMING)
        off = utility_with_links(g, sec, brk, x, {x: {up}}, UtilityModel.INCOMING)
        disables = up in best_link_deployment(g, sec, brk, x, UtilityModel.INCOMING).disabled
        outcomes.append((on, off, disables))
        rows.append([f"w_a={w_a:.0f} w_b={w_b:.0f}", f"{on:.0f}", f"{off:.0f}",
                     "disable it" if disables else "keep it"])
    text = "\n".join([
        format_table(["weights", "link on", "link off", "optimal for the x-up link"],
                     rows, title="Per-link dilemma: one link, two flows, opposite pulls"),
        "  outgoing utility: Theorem J.2 says secure everything "
        "(asserted in tests/core/test_perlink.py)",
    ])
    (on1, off1, d1), (on2, off2, d2) = outcomes
    return text, {
        "perlink.remorse_weights_disable_link": off1 > on1 and d1,
        "perlink.flow_b_weights_keep_link": on2 > off2 and not d2,
    }


def _scaling(env: ExperimentEnv) -> _Result:
    """The scale substitution (DESIGN.md §2): the structure the paper's
    argument rests on, and the case-study outcome, at 250-1000 ASes."""
    points = run_scaling_study(sizes=(250, 500, 1000), theta=0.05)
    text = format_table(
        ["N", "stub frac", "mean tiebreak", "multi-path", "sec-sensitive (6.7)",
         "frac secure", "rounds"],
        [[p.n, f"{p.stub_fraction:.3f}", f"{p.mean_tiebreak:.2f}",
          f"{p.multi_path_fraction:.2f}", f"{p.security_sensitive_fraction:.3f}",
          f"{p.fraction_secure_ases:.3f}", p.num_rounds]
         for p in points],
        title="Scale invariance (paper at 36,964: 0.85 / 1.18 / 0.20 / 0.035 / 0.85)",
    )
    return text, {
        "scaling.stubs_near_85pct": all(abs(p.stub_fraction - 0.85) < 0.05 for p in points),
        "scaling.tiebreak_sets_small": all(1.0 < p.mean_tiebreak < 1.8 for p in points),
        "scaling.few_decisions_need_security":
            all(0.0 < p.security_sensitive_fraction < 0.12 for p in points),
        "scaling.majority_secure": all(p.fraction_secure_ases > 0.5 for p in points),
    }


EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in (
        Experiment("table1", "Diamond census", "Table 1 / §5.1", _table1),
        Experiment("fig2", "DIAMOND competition", "Fig 2", _fig2),
        Experiment("fig3", "Adoption per round",
                   "Figs 3-7, §5.6, conclusion, §2.2.1 / §5", _fig3),
        Experiment("fig8", "Theta sweep", "Fig 8-9 / §6.3-6.5", _fig8),
        Experiment("fig10", "Tiebreak sets", "Fig 10 / §6.6-6.7", _fig10),
        Experiment("fig11", "Stub tie-breaking", "Fig 11 / §6.7", _fig11),
        Experiment("fig12", "CPs vs Tier-1s", "Fig 12 / §6.8", _fig12),
        Experiment("fig13", "Buyer's remorse", "Fig 13 / §7.1", _fig13),
        Experiment("fig14", "Projection accuracy", "Fig 14 / §8.1", _fig14),
        Experiment("fig15", "Partially-secure path attack", "Fig 15 / App B", _fig15),
        Experiment("fig16", "Set-cover reduction", "Fig 16 / App E", _fig16),
        Experiment("fig17", "Oscillator", "Fig 17 / App F", _fig17),
        Experiment("table2", "Graph composition", "Tables 2-4 / App D", _table2),
        Experiment("sec73", "Turn-off census", "§7.3", _sec73),
        Experiment("sec83", "Routing-policy ablation", "§8.3 / Lychev et al.", _sec83),
        Experiment(
            "attack-matrix",
            "Attack × policy × deployment matrix",
            "§2.2.1 / Lychev et al. / Barrett et al.",
            _attack_matrix,
        ),
        Experiment("forecast", "Local-forecast error", "§8.2", _forecast),
        Experiment("thresholds", "Threshold heterogeneity", "§8.2", _thresholds),
        Experiment("pricing", "Pricing models", "§8.4", _pricing),
        Experiment("evolution", "Evolving topology", "§8.4", _evolution),
        Experiment("perlink", "Per-link dilemma", "§8.3 / Thm J.1", _perlink),
        Experiment("scaling", "Scale invariance", "DESIGN.md §2", _scaling),
    )
}


def run_experiment(
    experiment_id: str, env: ExperimentEnv
) -> tuple[str, dict[str, bool]]:
    """Run a registered experiment by id: ``(text, {claim: held})``
    (raises KeyError with a hint)."""
    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: {known}"
        ) from None
    text, claims = experiment.run(env)
    return text, {name: bool(held) for name, held in claims.items()}


def list_experiments() -> list[Experiment]:
    """All registered experiments, id-sorted."""
    return [EXPERIMENTS[k] for k in sorted(EXPERIMENTS)]
