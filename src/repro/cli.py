"""Command-line interface: ``sbgp-sim``.

Subcommands mirror the experiment harness:

- ``case-study``   the Section-5 run (Figures 3-7, Table 1);
- ``sweep``        the theta x adopter-set grid (Figures 8-9);
- ``tiebreak``     tiebreak-set statistics (Figure 10, §6.6-6.7);
- ``cp-vs-tier1``  Figure 12;
- ``turnoff``      the §7.3 disable-incentive census;
- ``attack-impact`` attack impact vs deployment level (§2.2.1
  generalised: any registered scenario x deployment strategy, with
  ``--journal``/``--resume`` checkpointing like ``sweep``);
- ``graph-stats``  Tables 2-4 for the generated topology;
- ``validate-graph`` preflight a real as-rel snapshot (quarantine report).

Every simulation subcommand accepts ``--deadline SECONDS`` and
``--memory-budget SIZE`` (e.g. ``2GiB``); the resulting
:class:`~repro.runtime.guard.RuntimeGuard` is installed for the whole
run.  An expired deadline exits with code 3 after journaling completed
work, so ``sweep --journal ... --resume`` continues where it stopped.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments import (
    build_environment,
    cells_to_rows,
    format_series,
    format_table,
    per_destination_turn_off_census,
    run_case_study,
    run_cp_vs_tier1,
    run_sweep,
)
from repro.routing import backends as kernel_backends
from repro.routing.backends import available_backends
from repro.routing.policy import available_policies, policy_table
from repro.routing.tiebreak import (
    collect_tiebreak_stats,
    security_sensitive_decision_fraction,
)
from repro.runtime.errors import DeadlineExceeded
from repro.runtime.guard import (
    Deadline,
    MemoryBudget,
    RuntimeGuard,
    parse_size,
    use_guard,
)
from repro.topology.preflight import PREFLIGHT_MODES
from repro.topology.stats import summarize, top_by_degree

#: exit code for an expired ``--deadline`` (the run is resumable, which
#: distinguishes it from argparse's 2 and generic failures' 1)
EXIT_DEADLINE = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=1000, help="number of ASes")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper-scale topology preset "
                             "(36,964 ASes, the Cyclops snapshot's mixture); "
                             "overrides --n — pair with --destinations "
                             "unless you have hundreds of GiB of RAM")
    parser.add_argument("--destinations", type=int, default=None, metavar="K",
                        help="restrict the routing cache to a uniform sample "
                             "of K destinations (sampled estimators of the "
                             "all-destination utilities; required in practice "
                             "at paper scale)")
    parser.add_argument("--seed", type=int, default=2011, help="topology seed")
    parser.add_argument("--x", type=float, default=0.10, help="CP traffic fraction")
    parser.add_argument("--theta", type=float, default=0.05, help="deployment threshold")
    parser.add_argument("--augmented", action="store_true", help="use the augmented graph")
    parser.add_argument("--workers", type=int, default=1, help="cache-warm workers")
    parser.add_argument("--policy", default="security_3rd",
                        metavar="NAME",
                        help="routing policy driving route selection "
                             f"(one of: {', '.join(available_policies())}; "
                             "aliases like 'gao-rexford' also work)")
    parser.add_argument("--kernel-backend", default=None, metavar="NAME",
                        choices=[*available_backends(), kernel_backends.AUTO],
                        help="kernel backend for the batched routing kernels "
                             f"(one of: {', '.join(available_backends())}, "
                             "or 'auto' for cext when it loads; default: "
                             f"${kernel_backends.ENV_VAR} or auto; an "
                             "unusable compiled backend degrades to numpy, "
                             "and the tier that ran is printed)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the merged metrics snapshot (counters, "
                             "gauges, histograms) to PATH as JSON")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Chrome-trace/Perfetto JSON of the "
                             "run's spans to PATH")
    parser.add_argument("--trace-jsonl", default=None, metavar="PATH",
                        help="also write the span stream as JSONL "
                             "(one event per line) to PATH")
    parser.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                        help="cooperative wall-clock budget; when it expires "
                             "the run stops at the next checkpoint (exit "
                             "code 3) with completed work journaled")
    parser.add_argument("--memory-budget", default=None, metavar="SIZE",
                        help="memory budget like '512MiB' or '2g'; the run "
                             "degrades (chunked kernels, fewer workers, lazy "
                             "warm) to stay under it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbgp-sim",
        description="Market-driven S*BGP deployment simulator (SIGCOMM 2011 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("case-study", "sweep", "tiebreak", "cp-vs-tier1", "turnoff",
                 "attack-impact", "graph-stats", "experiment"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "attack-impact":
            p.add_argument("--samples", type=int, default=15,
                           help="attacker/victim pairs per state")
            p.add_argument("--scenario", action="append", default=None,
                           metavar="NAME",
                           help="attack scenario to evaluate; repeatable "
                                "(aliases like 'hijack' work; default: all "
                                "registered scenarios)")
            p.add_argument("--strategy", action="append", default=None,
                           metavar="NAME",
                           help="deployment strategy supplying the states; "
                                "repeatable (default: all registered "
                                "strategies)")
            p.add_argument("--levels", default=None, metavar="F1,F2,...",
                           help="comma-separated deployment levels in [0,1] "
                                "(default: 0,0.25,0.5,0.75,1)")
            p.add_argument("--attack-seed", type=int, default=0,
                           help="seed for the shared (victim, attacker) "
                                "pair sample")
            p.add_argument("--journal", default=None, metavar="PATH",
                           help="checkpoint each finished matrix cell to "
                                "this JSONL journal (repro.run-journal/1)")
            p.add_argument("--resume", action="store_true",
                           help="replay completed cells from an existing "
                                "--journal instead of recomputing them")
        if name == "experiment":
            p.add_argument("--id", default=None,
                           help="experiment id (omit to list all)")
        if name == "sweep":
            p.add_argument("--journal", default=None, metavar="PATH",
                           help="checkpoint each finished cell to this "
                                "JSONL journal (repro.run-journal/1)")
            p.add_argument("--resume", action="store_true",
                           help="replay completed cells from an existing "
                                "--journal instead of recomputing them")
            p.add_argument("--out", default=None, metavar="PATH",
                           help="also write the table to PATH (atomic)")
            p.add_argument("--thetas", default=None, metavar="T1,T2,...",
                           help="comma-separated theta values to sweep "
                                "(default: the paper's grid); a single "
                                "value runs one column — the paper-scale "
                                "single-cell mode")
            p.add_argument("--adopter-sets", default=None, metavar="A,B,...",
                           help="comma-separated adopter-set names to sweep "
                                "(a subset of the Fig-8 menu, e.g. "
                                "'top-5,5-cps'; default: all)")
    sv = sub.add_parser(
        "serve",
        help="run the simulation service: a long-lived daemon with a JSON "
             "job API, journal-backed job store, fair scheduler, and a "
             "cross-request arena/result cache",
    )
    sv.add_argument("--store", required=True, metavar="DIR",
                    help="store directory (job journal, sweep journals, "
                         "results, endpoint.json); reusing a directory "
                         "resumes its unfinished jobs")
    sv.add_argument("--host", default="127.0.0.1", help="bind address")
    sv.add_argument("--port", type=int, default=0,
                    help="bind port (0 = pick a free one; the actual "
                         "endpoint is written to <store>/endpoint.json)")
    sv.add_argument("--job-workers", type=int, default=1,
                    help="concurrent job-executor threads")
    sv.add_argument("--cache-budget", default="256MiB", metavar="SIZE",
                    help="result-cache byte budget (LRU eviction beyond it)")
    vg = sub.add_parser(
        "validate-graph",
        help="preflight an as-rel snapshot: malformed lines, duplicate/"
             "conflicting edges, self-loops, provider cycles, components",
    )
    vg.add_argument("path", help="as-rel file to validate")
    vg.add_argument("--mode", choices=PREFLIGHT_MODES, default="report",
                    help="strict: raise on any issue; repair: quarantine "
                         "and fix; report (default): repair + warn")
    vg.add_argument("--cp", type=int, action="append", default=[],
                    metavar="ASN", help="treat ASN as a content provider "
                                        "(repeatable; unioned with # cp: "
                                        "markers in the file)")
    vg.add_argument("--repaired-out", default=None, metavar="PATH",
                    help="write the repaired graph back out as as-rel "
                         "(atomic)")
    vg.add_argument("--report-out", default=None, metavar="PATH",
                    help="write the full quarantine report to PATH as JSON")
    sub.add_parser(
        "list-policies",
        help="print the routing-policy catalogue (name, ranking, description)",
    )
    return parser


def _build_guard(args: argparse.Namespace) -> RuntimeGuard:
    """The :class:`RuntimeGuard` requested on the command line."""
    deadline = getattr(args, "deadline", None)
    budget = getattr(args, "memory_budget", None)
    return RuntimeGuard(
        deadline=Deadline(deadline) if deadline is not None else None,
        memory=MemoryBudget(parse_size(budget)) if budget else None,
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-policies":
        for name, ranking, description in policy_table():
            print(f"{name:18s} {ranking:20s} {description}")
        return 0
    if args.command == "validate-graph":
        # pure input validation: no topology generation, no telemetry
        return _cmd_validate_graph(args)
    if args.command == "serve":
        # the daemon owns its own telemetry and builds environments
        # per job, not up front
        return _cmd_serve(args)
    if args.command == "experiment":
        from repro.experiments.registry import EXPERIMENTS, list_experiments

        if args.id is None:
            for e in list_experiments():
                print(f"{e.id:8s} {e.title}  ({e.paper_ref})")
            return 0
        # Validate before the (expensive) environment build: a typo'd id
        # should fail in milliseconds, not after warming the cache.
        if args.id not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            print(f"unknown experiment id {args.id!r}; valid ids: {known}",
                  file=sys.stderr)
            return 2

    telemetry_on = bool(args.metrics_out or args.trace_out or args.trace_jsonl)
    registry = tracer = None
    if telemetry_on:
        from repro import telemetry

        registry, tracer = telemetry.enable()
    exit_code = 0
    try:
        with use_guard(_build_guard(args)):
            config = None
            if args.paper_scale:
                from repro.topology.generator import paper_scale_config

                config = paper_scale_config(seed=args.seed)
            env = build_environment(
                n=args.n, seed=args.seed, x=args.x, augmented=args.augmented,
                workers=args.workers, policy=args.policy, config=config,
                sample_destinations=args.destinations,
                backend=args.kernel_backend,
            )
            command = args.command.replace("-", "_")
            handler = globals()[f"_cmd_{command}"]
            handler(env, args)
    except DeadlineExceeded as exc:
        print(f"sbgp-sim: {exc}", file=sys.stderr)
        exit_code = EXIT_DEADLINE
    finally:
        if telemetry_on:
            from repro import telemetry

            # telemetry is flushed even on a deadline exit: the
            # runtime.guard.* counters are exactly what you want to see
            # when a budget ran out
            _write_telemetry(args, registry, tracer)
            telemetry.disable()
    return exit_code


def _write_telemetry(args, registry, tracer) -> None:
    """Write the requested telemetry files and print the summary table."""
    from repro.telemetry.export import summary_rows, write_metrics

    snapshot = registry.snapshot()
    if args.metrics_out:
        write_metrics(args.metrics_out, snapshot)
    if args.trace_out:
        tracer.write_chrome_trace(args.trace_out)
    if args.trace_jsonl:
        tracer.write_jsonl(args.trace_jsonl)
    if args.command in ("case-study", "sweep"):
        print()
        print(format_table(
            ["metric", "type", "value", "detail"],
            summary_rows(snapshot),
            title="telemetry summary",
        ))


def _cmd_case_study(env, args) -> None:
    report = run_case_study(env, theta=args.theta)
    print(f"early adopters: {report.early_adopter_asns}")
    print(format_series("new secure ASes/round", report.fig3_new_ases, "{:d}"))
    print(format_series("adopting ISPs/round ", report.fig3_new_isps, "{:d}"))
    print(f"final: {report.fraction_secure_ases:.1%} of ASes secure "
          f"({report.result.outcome.value} after {report.result.num_rounds} rounds)")
    zs = report.zero_sum
    print(f"zero-sum: {zs.fraction_isps_above_threshold:.1%} of ISPs end above "
          f"(1+theta)x start; insecure ISPs end at "
          f"{zs.mean_final_over_start_insecure:.3f}x start on average")
    print(f"kernel backend: {env.cache.backend_name}")


def _cmd_sweep(env, args) -> None:
    from repro.runtime.errors import PersistenceError
    from repro.runtime.journal import RunJournal

    journal = None
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal PATH")
    if args.journal:
        journal = RunJournal(args.journal)
        if journal.exists() and not args.resume:
            raise SystemExit(
                f"journal {args.journal} already exists; "
                f"pass --resume to continue it or choose a fresh path"
            )
    kwargs = {}
    if args.thetas:
        kwargs["thetas"] = [float(t) for t in args.thetas.split(",") if t]
    if args.adopter_sets:
        menu = env.adopter_sets()
        names = [a for a in args.adopter_sets.split(",") if a]
        unknown = [a for a in names if a not in menu]
        if unknown:
            raise SystemExit(
                f"unknown adopter set(s) {', '.join(unknown)}; "
                f"valid names: {', '.join(menu)}"
            )
        kwargs["adopter_sets"] = {name: menu[name] for name in names}
    try:
        cells = run_sweep(env, journal=journal, **kwargs)
    except PersistenceError as exc:
        # journal mismatch/corruption and policy-mismatch SchemaError all
        # surface as one-line messages, not tracebacks
        raise SystemExit(str(exc)) from exc
    table = format_table(
        ["adopters", "theta", "frac ASes", "frac ISPs", "frac paths", "f^2", "rounds", "outcome"],
        cells_to_rows(cells),
        title="Fig 8/9: adoption and secure paths vs theta",
    )
    print(table)
    print(f"kernel backend: {env.cache.backend_name}")
    if args.out:
        from repro.experiments.report import write_report

        write_report(args.out, table)


def _cmd_tiebreak(env, args) -> None:
    stats = collect_tiebreak_stats(env.graph, dest_routing=env.cache.dest_routing)
    print(f"mean tiebreak set: {stats.mean:.2f} (ISPs {stats.mean_isp:.2f}, "
          f"stubs {stats.mean_stub:.2f})")
    print(f"multi-path pairs: {stats.multi_path_fraction:.1%} "
          f"(ISP sources: {stats.multi_path_fraction_isp:.1%})")
    frac = security_sensitive_decision_fraction(env.graph, stats)
    print(f"security-sensitive routing decisions (sec 6.7): {frac:.2%}")


def _cmd_cp_vs_tier1(env, args) -> None:
    cells = run_cp_vs_tier1(env)
    rows = [
        [f"{c.x:.2f}", c.adopters, f"{c.theta:.2f}",
         f"{c.fraction_secure_ases:.3f}", f"{c.fraction_secure_isps:.3f}"]
        for c in cells
    ]
    print(format_table(
        ["x", "adopters", "theta", "frac ASes", "frac ISPs"],
        rows, title="Fig 12: CPs vs Tier-1s",
    ))


def _cmd_turnoff(env, args) -> None:
    from repro.core.config import SimulationConfig, UtilityModel
    from repro.core.dynamics import DeploymentSimulation

    config = SimulationConfig(
        theta=args.theta, utility_model=UtilityModel.INCOMING, max_rounds=40
    )
    sim = DeploymentSimulation(env.graph, env.case_study_adopters(), config, env.cache)
    result = sim.run()
    census = per_destination_turn_off_census(env, result.final_state)
    print(f"secure ISPs: {census.num_secure_isps}; with a per-destination "
          f"turn-off incentive: {census.num_with_incentive} ({census.fraction:.1%})")
    if census.examples:
        print(f"examples: {list(census.examples)}")


def _cmd_attack_impact(env, args) -> None:
    from repro.experiments.attack_matrix import matrix_to_rows, run_attack_matrix
    from repro.runtime.errors import PersistenceError
    from repro.runtime.journal import RunJournal
    from repro.security import get_scenario, get_strategy

    journal = None
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal PATH")
    if args.journal:
        journal = RunJournal(args.journal)
        if journal.exists() and not args.resume:
            raise SystemExit(
                f"journal {args.journal} already exists; "
                f"pass --resume to continue it or choose a fresh path"
            )
    try:
        scenarios = (
            [get_scenario(s).name for s in args.scenario] if args.scenario else None
        )
        strategies = (
            [get_strategy(s).name for s in args.strategy] if args.strategy else None
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    if args.levels:
        levels = tuple(float(f) for f in args.levels.split(",") if f)
    try:
        cells = run_attack_matrix(
            env,
            scenarios=scenarios,
            policies=[env.cache.policy_name],
            strategies=strategies,
            levels=levels,
            samples=args.samples,
            seed=args.attack_seed,
            journal=journal,
        )
    except PersistenceError as exc:
        # journal mismatch/corruption and scenario-mismatch SchemaError
        # all surface as one-line messages, not tracebacks
        raise SystemExit(str(exc)) from exc
    print(format_table(
        ["scenario", "policy", "strategy", "level", "frac secure",
         "mean fooled", "max fooled", "outcome"],
        matrix_to_rows(cells),
        title="Attack impact vs deployment level (sec 2.2.1 generalised)",
    ))


def _cmd_serve(args) -> int:
    import signal

    from repro import telemetry
    from repro.service.daemon import SimulationService

    # telemetry is always live for the daemon: /metrics is part of the
    # API contract, and the final snapshot flushes to <store>/metrics.json
    telemetry.enable()
    service = SimulationService(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.job_workers,
        cache_budget_bytes=parse_size(args.cache_budget),
    )

    def _on_signal(signum, frame) -> None:
        # signal-safe: just trips the event the main thread waits on;
        # the graceful drain happens below, outside handler context
        service.request_shutdown()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    service.start()
    host, port = service.address
    print(f"sbgp-sim service listening on http://{host}:{port} "
          f"(store: {args.store})", flush=True)
    try:
        service.wait_until_shutdown()
    finally:
        service.shutdown()
        telemetry.disable()
    return 0


def _cmd_validate_graph(args) -> int:
    import json

    from repro.runtime.atomic import atomic_write_text
    from repro.topology.errors import GraphValidationError
    from repro.topology.preflight import preflight_as_rel
    from repro.topology.serialization import dump_as_rel

    try:
        graph, report = preflight_as_rel(args.path, cp_asns=args.cp, mode=args.mode)
    except GraphValidationError as exc:
        print(f"sbgp-sim: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sbgp-sim: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    print(report.format_text())
    if args.report_out:
        atomic_write_text(args.report_out,
                          json.dumps(report.to_dict(), indent=2) + "\n")
    if args.repaired_out:
        dump_as_rel(graph, args.repaired_out)
        print(f"repaired graph written to {args.repaired_out}")
    return 0 if report.ok else 1


def _cmd_experiment(env, args) -> None:
    from repro.experiments.registry import run_experiment

    print(run_experiment(args.id, env))


def _cmd_graph_stats(env, args) -> None:
    s = summarize(env.graph)
    print(format_table(
        ["ASes", "stubs", "ISPs", "CPs", "cust-prov edges", "peerings"],
        [[s.num_ases, s.num_stubs, s.num_isps, s.num_cps,
          s.num_customer_provider_edges, s.num_peering_edges]],
        title="Table 2: graph summary",
    ))
    print("top-5 by degree:", top_by_degree(env.graph, 5))
    cs = env.cache.stats()
    print(format_table(
        ["policy", "backend", "hits", "misses", "builds", "installs", "warm s",
         "cached", "fraction", "arena MiB", "state rebuilds"],
        [[cs.policy, cs.backend, cs.hits, cs.misses, cs.builds, cs.installs,
          f"{cs.warm_seconds:.2f}", f"{cs.cached}/{cs.total}",
          f"{cs.cached_fraction:.1%}", f"{cs.arena_bytes / 2**20:.1f}",
          cs.state_rebuilds]],
        title="routing cache",
    ))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
