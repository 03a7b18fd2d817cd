"""The traced run: per-layer time and counts, measured from outside.

One traced iteration per workload runs the same public calls as the
untraced one, but with the benchmark's span recorder around each call
into a layer.  Set-up is traced by making ``build_environment``'s calls
in its order (generate -> traffic -> cache -> warm -> arena); the traced
result is verified against ``golden.json`` like any other, which is what
shows the traced path still builds the environment the program builds.
The inside of a game is attributed by *replaying* a finished game's
recorded states through ``compute_round_data``, ``project_flip`` and
``StateDeriver.node_secure`` one call at a time.

Nothing here adds a span, counter, flag or environment variable to the
program.  A layer a workload does not pass through reports 0 for it.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.config import SimulationConfig, UtilityModel
from repro.core.dynamics import SimulationResult, run_deployment
from repro.core.engine import compute_round_data
from repro.core.metrics import deployment_outcome, security_snapshot
from repro.core.projection import project_flip
from repro.core.state import StateDeriver
from repro.experiments.attack_matrix import run_attack_matrix
from repro.experiments.case_study import build_report
from repro.experiments.persistence import save_result
from repro.experiments.setup import ExperimentEnv
from repro.experiments.sweeps import cell_to_dict, run_sweep
from repro.parallel.engine import (
    default_engine,
    parallel_project_flips,
    parallel_warm_cache,
)
from repro.routing.arena import compute_trees_batched, subtree_weights_batched
from repro.routing.backends import load_backend
from repro.routing.cache import RoutingCache
from repro.routing.reference import ConvergenceError
from repro.runtime.journal import RunJournal
from repro.security.hijack import simulate_attacks_batched
from repro.security.metrics import sample_pairs
from repro.security.scenarios import get_strategy
from repro.topology.generator import generate_topology
from repro.topology.traffic import apply_traffic_model

import workloads as wl
from spans import SpanRecorder
from stats import Calibration
from measure import Ledger, library_iteration, measure_service, warm_up

#: every per-layer metric: unit and which direction is better
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "topology.generate_s": ("s", "lower"),
    "topology.traffic_s": ("s", "lower"),
    "topology.nodes": ("count", "lower"),
    "topology.edges": ("count", "lower"),
    "routing.warm_s": ("s", "lower"),
    "routing.arena_pack_s": ("s", "lower"),
    "routing.backend_load_s": ("s", "lower"),
    "routing.arena_mib": ("MiB", "lower"),
    "routing.trees_batched_ms": ("ms", "lower"),
    "routing.weights_batched_ms": ("ms", "lower"),
    "core.game_s": ("s", "lower"),
    "core.rounds": ("count", "lower"),
    "core.round_data_ms": ("ms", "lower"),
    "core.round_data_calls": ("count", "lower"),
    "core.project_flip_ms": ("ms", "lower"),
    "core.projections": ("count", "lower"),
    "core.state_derive_ms": ("ms", "lower"),
    "parallel.warm_w2_s": ("s", "lower"),
    "parallel.project_w2_s": ("s", "lower"),
    "parallel.map_overhead_ms": ("ms", "lower"),
    "parallel.speedup_w2": ("ratio", "higher"),
    "experiments.cell_ms": ("ms", "lower"),
    "experiments.cells": ("count", "lower"),
    "experiments.sweep_overhead_s": ("s", "lower"),
    "experiments.snapshot_ms": ("ms", "lower"),
    "experiments.report_s": ("s", "lower"),
    "runtime.journal_append_ms": ("ms", "lower"),
    "runtime.journal_replay_ms": ("ms", "lower"),
    "runtime.journal_bytes": ("bytes", "lower"),
    "runtime.save_result_ms": ("ms", "lower"),
    "security.attacks_batched_ms": ("ms", "lower"),
    "security.strategy_states_ms": ("ms", "lower"),
    "security.cells": ("count", "lower"),
    "security.pairs": ("count", "lower"),
    "security.no_convergence_cells": ("count", "lower"),
    "service.start_s": ("s", "lower"),
    "service.submit_ms": ("ms", "lower"),
    "service.healthz_ms": ("ms", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.run_ms": ("ms", "lower"),
    "service.result_fetch_ms": ("ms", "lower"),
    "service.coalesced_ms": ("ms", "lower"),
    "service.cache_cell_hits": ("count", "higher"),
    "service.cache_arena_hits": ("count", "higher"),
    "service.cache_hit_ratio": ("ratio", "higher"),
    "service.result_bytes": ("bytes", "lower"),
    "service.store_bytes": ("bytes", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.case_study_s": ("s", "lower"),
    "cli.residual_s": ("s", "lower"),
    "bench.calib_s": ("s", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
    "bench.layer_coverage_frac": ("ratio", "higher"),
}

#: how each workload's set-up differs from the default environment
BUILD_OPTIONS: dict[str, dict[str, Any]] = {
    "game": {}, "sweep": {}, "attack_matrix": {},
    "game_w2": {"workers": 2},
    "paper_shape": {"backend": "cext", "sampled": True},
}

MS = 1000.0

#: projections replayed per round of a finished game (an evenly strided
#: sample when the round made more; counts always cover every projection)
REPLAY_PROJECTIONS = 300


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def median_ms(fn: Callable[[], Any], repeats: int) -> float:
    return statistics.median(timed(fn)[0] for _ in range(repeats)) * MS


def traced_build(name: str, n: int, seed: int, rec: SpanRecorder) -> ExperimentEnv:
    """``build_environment``'s calls, one span per layer."""
    options = BUILD_OPTIONS[name]
    backend = options.get("backend")
    with rec.span("setup"):
        with rec.span("routing.backend_load"):
            load_backend(backend or "numpy")
        with rec.span("topology.generate"):
            topology = generate_topology(n=n, seed=seed)
        graph = topology.graph
        with rec.span("topology.traffic"):
            apply_traffic_model(graph, 0.10)
        destinations = None
        if options.get("sampled"):
            rng = random.Random(seed + 17)
            destinations = sorted(rng.sample(range(graph.n), n * wl.PAPER_DESTS // 8000))
        cache = RoutingCache(graph, destinations=destinations, backend=backend)
        with rec.span("routing.warm"):
            parallel_warm_cache(cache, workers=options.get("workers", 1))
        with rec.span("routing.arena_pack"):
            cache.ensure_arena()
    return ExperimentEnv(
        topology=topology, graph=graph, cache=cache, x=0.10, augmented=False
    )


class PaperCell(list):
    """The traced paper_shape cell: its digestable form plus the game behind it."""

    def __init__(self, result: SimulationResult, cells: list):
        super().__init__(cells)
        self.result = result


def cell_spans(rec: SpanRecorder, name: str) -> Callable[[Any, str], None]:
    """An ``on_cell`` hook that turns callback times into one span per cell."""
    last = [time.perf_counter()]

    def on_cell(cell: Any, source: str) -> None:
        now = time.perf_counter()
        if source == "computed":
            rec.add(name, last[0], now)
        last[0] = now

    return on_cell


def traced_run(w: wl.Workload, env: ExperimentEnv, tmp: Path, rec: SpanRecorder) -> Any:
    """The workload's operation with a span around each layer it calls."""
    with rec.span("operation"):
        if w.name in ("game", "game_w2"):
            adopters = env.case_study_adopters()
            config = wl.game_config(2 if w.name == "game_w2" else 1)
            with rec.span("core.game"):
                result = run_deployment(env.graph, adopters, config, cache=env.cache)
            with rec.span("experiments.report"):
                return build_report(env, result, adopters)
        if w.name == "sweep":
            journal = tmp / "sweep.jsonl"
            journal.unlink(missing_ok=True)
            sets = wl.named_sets(env, wl.SWEEP_SETS)
            with rec.span("experiments.sweep"):
                cells = run_sweep(
                    env, thetas=wl.SWEEP_THETAS, adopter_sets=sets, journal=journal,
                    on_cell=cell_spans(rec, "experiments.cell"),
                )
            with rec.span("runtime.journal_replay"):
                run_sweep(env, thetas=wl.SWEEP_THETAS, adopter_sets=sets, journal=journal)
            return cells
        if w.name == "paper_shape":
            # one cell as ``run_sweep`` computes it: the game, the final
            # round data, the snapshot (the golden check holds it to that)
            config = SimulationConfig(
                theta=wl.THETA, utility_model=UtilityModel.OUTGOING, max_rounds=100)
            adopters = wl.named_sets(env, (wl.PAPER_SET,))[wl.PAPER_SET]
            with rec.span("core.game"):
                result = run_deployment(env.graph, adopters, config, cache=env.cache)
            with rec.span("core.round_data"):
                final_rd = compute_round_data(
                    env.cache, StateDeriver(env.graph, True, env.cache.compiled),
                    result.final_state, config.utility_model)
            with rec.span("experiments.snapshot"):
                security_snapshot(env.graph, final_rd)
            outcome = deployment_outcome(result)
            return PaperCell(result, [{
                "adopters": wl.PAPER_SET, "theta": wl.THETA,
                "num_rounds": outcome.num_rounds, "outcome": outcome.outcome,
                "fraction_secure_ases": outcome.fraction_secure_ases,
            }])
        with rec.span("experiments.attack_matrix"):
            return run_attack_matrix(
                env, scenarios=wl.ATTACK_SCENARIOS, policies=wl.ATTACK_POLICIES,
                strategies=wl.ATTACK_STRATEGIES, levels=wl.ATTACK_LEVELS,
                samples=wl.ATTACK_PAIRS, seed=wl.CANONICAL_SEED,
                on_cell=cell_spans(rec, "security.cell"),
            )


def game_counts(games: list[SimulationResult]) -> tuple[int, int]:
    """``compute_round_data`` calls and projections the games made."""
    # per game: starting utilities + the initial state + one per flipping round
    calls = sum(
        2 + sum(1 for r in g.rounds if r.turned_on or r.turned_off) for g in games)
    return calls, sum(len(r.projections) for g in games for r in g.rounds)


def replay_core(env: ExperimentEnv, games: list[SimulationResult],
                rec: SpanRecorder) -> tuple[dict[str, float], dict[str, float]]:
    """Time the game's inner calls one at a time on its recorded states.

    Returns the per-call layer metrics and the model of where the games'
    time went: calls made by all ``games`` x the per-call cost replayed
    on the last one.
    """
    result = games[-1]
    cache, config = env.cache, result.config
    deriver = StateDeriver(env.graph, config.stub_breaks_ties, cache.compiled)
    round_data, project, replayed = [], 0.0, 0
    rd = None
    with rec.span("replay.core"):
        for record in result.rounds:
            seconds, rd = timed(lambda: compute_round_data(
                cache, deriver, record.state, config.utility_model))
            round_data.append(seconds)
            jobs = list(record.projections.items())
            sample = jobs[::max(1, len(jobs) // REPLAY_PROJECTIONS)]
            seconds, _ = timed(lambda: [
                project_flip(cache, deriver, rd, isp, turning_on=proj.turning_on,
                             model=config.utility_model, engine=config.projection)
                for isp, proj in sample
            ])
            # the sample stands for its whole round
            project += seconds * len(jobs) / max(1, len(sample))
            replayed += len(jobs)
        state = result.rounds[0].state
        arena = cache.ensure_arena()
        slots = arena.all_slots()
        trees = compute_trees_batched(arena, slots, rd.node_secure, rd.breaks_ties)
        calls, projections = game_counts(games)
        layers = {
            "core.rounds": float(sum(g.num_rounds for g in games)),
            "core.round_data_calls": float(calls),
            "core.round_data_ms": statistics.median(round_data) * MS,
            "core.project_flip_ms": project / max(1, replayed) * MS,
            "core.projections": float(projections),
            # called once per projection, inside project_flip
            "core.state_derive_ms": median_ms(lambda: deriver.node_secure(state), 25),
            "routing.trees_batched_ms": median_ms(lambda: compute_trees_batched(
                arena, slots, rd.node_secure, rd.breaks_ties), 3),
            "routing.weights_batched_ms": median_ms(lambda: subtree_weights_batched(
                arena, slots, trees.choice, env.graph.weights), 3),
        }
    derive = layers["core.state_derive_ms"]
    return layers, {
        "core.round_data": calls * layers["core.round_data_ms"] / MS,
        "core.project_flip": projections * (layers["core.project_flip_ms"] - derive) / MS,
        "core.state_derive": projections * derive / MS,
    }


def probe_cli(n: int, untraced_total: float) -> dict[str, float]:
    """Cold start: interpreter + import, and one ``case-study`` as users run it."""

    def run(*argv: str) -> float:
        seconds, proc = timed(lambda: subprocess.run(
            [sys.executable, *argv], capture_output=True, timeout=120))
        if proc.returncode != 0:
            raise RuntimeError(f"{argv}: exit {proc.returncode}: {proc.stderr[-300:]!r}")
        return seconds

    import_s = run("-c", "import repro.cli")
    case_study_s = run("-m", "repro.cli", "case-study", "--n", str(n))
    return {
        "cli.import_s": import_s,
        "cli.case_study_s": case_study_s,
        # what a CLI run costs beyond the library's set-up + game
        "cli.residual_s": case_study_s - untraced_total,
    }


def probe_game(env, report, rec, tmp, untraced):
    layers, model = replay_core(env, [report.result], rec)
    layers.update(probe_cli(env.graph.n, untraced[0] + untraced[1]))
    return layers, model


def probe_game_w2(env, report, rec, tmp, untraced):
    result = report.result
    config = result.config
    deriver = StateDeriver(env.graph, config.stub_breaks_ties, env.cache.compiled)
    round_data, project = [], 0.0
    with rec.span("replay.parallel"):
        for record in result.rounds:
            seconds, rd = timed(lambda: compute_round_data(
                env.cache, deriver, record.state, config.utility_model))
            round_data.append(seconds)
            jobs = [(isp, proj.turning_on) for isp, proj in record.projections.items()]
            project += timed(lambda: parallel_project_flips(
                env.cache, deriver, rd, jobs, model=config.utility_model,
                projection=config.projection, workers=2))[0]
        map_overhead = median_ms(lambda: default_engine(2).map(abs, list(range(8))), 3)
        # the same inputs through the serial path, untraced like ``untraced``
        serial = wl.LIBRARY["game"]
        _, serial_wall, _ = library_iteration(serial, serial.n, wl.CANONICAL_SEED, tmp)
    calls, projections = game_counts([result])
    layers = {
        "core.rounds": float(result.num_rounds),
        "core.round_data_calls": float(calls),
        "core.round_data_ms": statistics.median(round_data) * MS,
        "core.projections": float(projections),
        "parallel.warm_w2_s": rec.total("routing.warm"),
        "parallel.project_w2_s": project,
        "parallel.map_overhead_ms": map_overhead,
        "parallel.speedup_w2": serial_wall / untraced[1],
    }
    return layers, {
        "core.round_data": calls * layers["core.round_data_ms"] / MS,
        "parallel.project_w2": project,
    }


def probe_sweep(env, cells, rec, tmp, untraced):
    cache = env.cache
    games: list[SimulationResult] = []
    games_s = 0.0
    with rec.span("replay.games"):
        for adopters in wl.named_sets(env, wl.SWEEP_SETS).values():
            for theta in wl.SWEEP_THETAS:
                config = SimulationConfig(
                    theta=theta, utility_model=UtilityModel.OUTGOING, max_rounds=100)
                seconds, result = timed(lambda: run_deployment(
                    env.graph, adopters, config, cache=cache))
                games_s += seconds
                games.append(result)
    layers, model = replay_core(env, games, rec)
    deriver = StateDeriver(env.graph, True, cache.compiled)
    final_rd = compute_round_data(
        cache, deriver, games[-1].final_state, UtilityModel.OUTGOING)
    probe = RunJournal(tmp / "probe.jsonl")
    probe.ensure_header("perf-probe", {})
    record = {"type": "cell", "cell": cell_to_dict(cells[0])}
    layers.update({
        "core.game_s": games_s,
        "experiments.cell_ms": statistics.median(rec.durations("experiments.cell")) * MS,
        "experiments.cells": float(len(cells)),
        "experiments.sweep_overhead_s": rec.total("experiments.sweep") - games_s,
        "experiments.snapshot_ms": median_ms(
            lambda: security_snapshot(env.graph, final_rd), 5),
        "runtime.journal_append_ms": median_ms(lambda: probe.append(record), 20),
        "runtime.journal_replay_ms": rec.total("runtime.journal_replay") * MS,
        "runtime.journal_bytes": float((tmp / "sweep.jsonl").stat().st_size),
        "runtime.save_result_ms": median_ms(
            lambda: save_result(games[-1], tmp / "result.json"), 5),
    })
    # each cell also resolves its final state, snapshots it and journals itself
    model["core.round_data"] += len(cells) * layers["core.round_data_ms"] / MS
    model["experiments.snapshot"] = len(cells) * layers["experiments.snapshot_ms"] / MS
    model["runtime.journal_append"] = len(cells) * layers["runtime.journal_append_ms"] / MS
    return layers, model


def probe_paper_shape(env, cell, rec, tmp, untraced):
    layers, model = replay_core(env, [cell.result], rec)
    layers["experiments.snapshot_ms"] = rec.total("experiments.snapshot") * MS
    return layers, model


def probe_attack_matrix(env, cells, rec, tmp, untraced):
    graph = env.graph
    deriver = StateDeriver(graph, True, env.cache.compiled)
    pairs = sample_pairs(graph, samples=wl.ATTACK_PAIRS, seed=wl.CANONICAL_SEED)
    states_s, states, attacks_s = [], [], []
    with rec.span("replay.security"):
        for name in wl.ATTACK_STRATEGIES:
            seconds, ladder = timed(lambda: get_strategy(name).states(
                graph, wl.ATTACK_LEVELS, seed=wl.CANONICAL_SEED, cache=env.cache))
            states_s.append(seconds)
            states += [state for _, state in ladder]
        node_secure = deriver.node_secure(states[-1])
        breaks = deriver.breaks_ties(node_secure)

        def attack(scenario: str, policy: str) -> None:
            try:
                simulate_attacks_batched(
                    graph, pairs, node_secure, breaks, scenario=scenario,
                    policy=policy, compiled=env.cache.compiled)
            except ConvergenceError:
                pass  # the matrix records such a cell as no-convergence

        for scenario in wl.ATTACK_SCENARIOS:
            for policy in wl.ATTACK_POLICIES:
                attacks_s.append(timed(lambda: attack(scenario, policy))[0])
    layers = {
        "security.attacks_batched_ms": statistics.median(attacks_s) * MS,
        "security.strategy_states_ms": statistics.median(states_s) * MS,
        "security.cells": float(len(cells)),
        "security.pairs": float(len(pairs)),
        "security.no_convergence_cells": float(
            sum(1 for c in cells if c.outcome != "ok")),
    }
    # every (scenario, policy) runs once per deployment state
    return layers, {
        "security.strategy_states": sum(states_s),
        "security.attacks_batched": sum(attacks_s) * len(states),
    }


PROBES = {
    "game": probe_game, "game_w2": probe_game_w2, "sweep": probe_sweep,
    "paper_shape": probe_paper_shape, "attack_matrix": probe_attack_matrix,
}

#: spans that are the benchmark's own bookkeeping, not a layer
STRUCTURAL = ("iteration", "setup", "operation", "experiments.sweep",
              "experiments.attack_matrix")
#: spans around a call whose inside only the replayed calls can attribute
OPAQUE = ("core.game", "experiments.cell", "security.cell")


def layer_budget(rec: SpanRecorder, model: dict[str, float]) -> tuple[dict, dict]:
    """Where the traced iteration's time went, and what stays unattributed.

    Layers the benchmark called directly count their span's self time;
    the inside of a game (or cell) counts the replayed per-call costs x
    the calls it made.  What neither explains is listed by the span it
    hides in, never dropped.
    """
    self_times = rec.self_times()
    budget = {
        name: seconds for name, seconds in self_times.items()
        if name not in STRUCTURAL + OPAQUE and not name.startswith("replay.")
    }
    for name, seconds in model.items():
        budget[name] = budget.get(name, 0.0) + seconds
    uncovered = {name: self_times[name] for name in STRUCTURAL if name in self_times}
    opaque = sum(self_times.get(name, 0.0) for name in OPAQUE)
    uncovered["inside " + "/".join(n for n in OPAQUE if n in self_times)] = (
        opaque - sum(model.values()))
    return budget, uncovered


def trace_library(w: wl.Workload, args: Any, ledger: Ledger) -> dict:
    """Warm-up, one untraced and one traced iteration, then the layer probes."""
    tmp, seed = args.work, wl.CANONICAL_SEED
    calib = Calibration()
    layers = {name: 0.0 for name in LAYER_METRICS}
    body = {"values": {}, "samples": {}, "layers": layers}
    if not warm_up(w, args.seed, tmp, ledger, passes=1):
        return {**body, "calib_s": calib.run()}
    calib.run()
    untraced = ledger.attempt(w.name, lambda: library_iteration(w, w.n, seed, tmp))
    if untraced is None:
        return {**body, "calib_s": calib.median()}
    ledger.verify(w.name, "full", untraced[2], canonical=True)
    calib.run()

    rec = SpanRecorder()

    def traced() -> tuple[ExperimentEnv, Any]:
        with rec.span("iteration"):
            env = traced_build(w.name, w.n, seed, rec)
            return env, traced_run(w, env, tmp, rec)

    outcome = ledger.attempt(f"{w.name} traced", traced)
    if outcome is None:
        return {**body, "calib_s": calib.median()}
    env, result = outcome
    ledger.verify(f"{w.name} traced", "full", w.digest(env, result), canonical=True)
    calib.run()

    iteration = rec.spans[0]
    layers.update({
        "topology.generate_s": rec.total("topology.generate"),
        "topology.traffic_s": rec.total("topology.traffic"),
        "topology.nodes": float(env.graph.n),
        "topology.edges": float(
            env.graph.num_customer_provider_edges() + env.graph.num_peering_edges()),
        "routing.warm_s": rec.total("routing.warm"),
        "routing.arena_pack_s": rec.total("routing.arena_pack"),
        "routing.backend_load_s": rec.total("routing.backend_load"),
        "routing.arena_mib": env.cache.ensure_arena().nbytes / 2**20,
        "core.game_s": rec.total("core.game"),
        "experiments.report_s": rec.total("experiments.report"),
        "bench.trace_overhead_frac":
            iteration.duration / (untraced[0] + untraced[1]) - 1.0,
    })
    probed = ledger.attempt(
        f"{w.name} layer probes",
        lambda: PROBES[w.name](env, result, rec, tmp, untraced),
    )
    probed_layers, model = probed or ({}, {})
    layers.update(probed_layers)
    budget, uncovered = layer_budget(rec, model)
    layers["bench.layer_coverage_frac"] = sum(budget.values()) / iteration.duration
    calib.run()
    layers["bench.calib_s"] = calib.median()
    return {
        "values": {}, "samples": {"setup_s": [untraced[0]], "wall_s": [untraced[1]]},
        "layers": layers, "calib_s": calib.median(),
        "traced_s": iteration.duration, "budget_s": budget, "uncovered_s": uncovered,
        "spans": rec.to_dicts(),
    }


def trace_service(args: Any, ledger: Ledger) -> dict:
    """The service run with the daemon's own endpoints read afterwards."""
    body = measure_service(args.seed, args.seconds, args.work, ledger, trace=True)
    layers = {name: 0.0 for name in LAYER_METRICS}
    layers.update(body.get("layers", {}))
    layers["bench.calib_s"] = body["calib_s"]
    body["layers"] = layers
    return body
