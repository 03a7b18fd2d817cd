"""The deployment game loop (Sections 3.2-3.3).

Each round, every ISP evaluates the myopic best-response rule (3):

    flip  iff  u_n(~S_n, S_-n) > (1 + theta) * u_n(S)

All ISPs that want to flip do so *simultaneously* (which is why
projected utility can differ from realised utility — Figure 14 / §8.1);
then stub security is re-derived and the next round begins.  The
process ends at a stable state (no ISP wants to move), when a state
repeats (an oscillation, possible only under the incoming model —
Theorem 7.1), or at the round cap.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import time
from typing import Iterable

import numpy as np

from pathlib import Path

from repro.core.config import SimulationConfig
from repro.core.engine import RoundData, compute_round_data
from repro.core.pricing import LINEAR_PRICING, Pricing
from repro.core.projection import Projection, project_flips
from repro.core.state import DeploymentState, StateDeriver
from repro.routing.cache import RoutingCache
from repro.routing.policy import DEFAULT_POLICY
from repro.runtime.errors import StateMemoScopeError
from repro.runtime.guard import current_guard
from repro.runtime.journal import RunJournal, coerce_journal
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer
from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole

#: journal ``kind`` for single-simulation round traces
SIMULATION_JOURNAL_KIND = "simulation"


class Outcome(enum.Enum):
    """How a simulation ended."""

    STABLE = "stable"
    OSCILLATION = "oscillation"
    MAX_ROUNDS = "max-rounds"


#: nobody deploys: the state every game's starting utilities are read in
_EMPTY_STATE = DeploymentState.initial(())


@dataclasses.dataclass
class StateEvaluation:
    """Everything update rule (3) reads about one state; none of it is theta's.

    Built from exactly one :func:`compute_round_data`; the ``[num_dests,
    n]`` :class:`RoundData` behind it is dropped once the projections
    are in, so an evaluation costs a few KB.  The arrays are read-only:
    round records and results of every game that visits the state share
    them.
    """

    state: DeploymentState
    node_secure: np.ndarray
    utilities: np.ndarray
    secure_pairs: int  # true entries of ``sec_matrix``: all the snapshot needs
    #: ``isp -> Projection`` in job order, once a round was played here
    projections: dict[int, Projection] | None = None


class StateMemo(dict[DeploymentState, StateEvaluation]):
    """``state -> StateEvaluation`` for games that differ only in theta.

    Keyed by the whole state, because the early adopters steer which
    stubs a flip takes along and who decides.  Everything else an
    evaluation depends on is pinned as the memo's *scope* by the first
    simulation that uses it; a later simulation with another scope
    raises :class:`StateMemoScopeError` instead of reading another
    configuration's numbers.  Owned by the loop that knows its inputs
    stay fixed (one theta row of a sweep), never by the cache: traffic
    weights may be re-applied under a live cache.
    """

    _scope: dict[str, object] | None = None

    def bind(self, scope: dict[str, object]) -> None:
        """Pin ``scope`` at first use; raise if a later one differs."""
        if self._scope is None:
            self._scope = scope
            return
        differing = sorted(k for k, v in scope.items() if self._scope[k] != v)
        if differing:
            raise StateMemoScopeError(differing)

    def discard_trajectories(self) -> None:
        """Drop everything but the empty state, which every game starts from."""
        empty = self.get(_EMPTY_STATE)
        self.clear()
        if empty is not None:
            self[_EMPTY_STATE] = empty


@dataclasses.dataclass
class RoundRecord:
    """What happened in one round (state *entering* the round)."""

    index: int
    state: DeploymentState
    node_secure: np.ndarray
    utilities: np.ndarray | None
    projections: dict[int, Projection]
    turned_on: list[int]
    turned_off: list[int]

    @property
    def num_secure_ases(self) -> int:
        """ASes secure at the start of this round (full or simplex)."""
        return int(self.node_secure.sum())


@dataclasses.dataclass
class SimulationResult:
    """Full trace of a deployment simulation."""

    graph: ASGraph
    config: SimulationConfig
    early_adopters: frozenset[int]
    rounds: list[RoundRecord]
    final_state: DeploymentState
    final_node_secure: np.ndarray
    final_utilities: np.ndarray
    starting_utilities: np.ndarray
    outcome: Outcome
    #: (source, destination) pairs routed securely in the final state,
    #: out of ``num_dests * graph.n`` (Fig. 9's numerator)
    final_secure_pairs: int
    num_dests: int

    @property
    def num_rounds(self) -> int:
        """Rounds in which decisions were evaluated."""
        return len(self.rounds)

    def secure_ases_per_round(self) -> list[int]:
        """Cumulative count of secure ASes entering each round + final."""
        counts = [r.num_secure_ases for r in self.rounds]
        counts.append(int(self.final_node_secure.sum()))
        return counts

    def newly_secure_per_round(self) -> list[int]:
        """Fig. 3: newly secure ASes per round (simplex stubs included)."""
        cumulative = self.secure_ases_per_round()
        return [b - a for a, b in zip(cumulative, cumulative[1:])]

    def adopting_isps_per_round(self) -> list[int]:
        """Fig. 3: ISPs that deployed S*BGP in each round."""
        return [len(r.turned_on) for r in self.rounds]

    def utility_history(self, node: int) -> list[float]:
        """Per-round utility of ``node`` (requires record_utilities)."""
        out = []
        for r in self.rounds:
            if r.utilities is None:
                raise ValueError("utilities were not recorded; set record_utilities")
            out.append(float(r.utilities[node]))
        out.append(float(self.final_utilities[node]))
        return out

    def adoption_round(self, node: int) -> int | None:
        """Round in which ``node`` deployed (None if never / initial)."""
        for r in self.rounds:
            if node in r.turned_on:
                return r.index
        return None


class DeploymentSimulation:
    """Drives the myopic best-response dynamics over an AS graph.

    Parameters
    ----------
    graph:
        Topology with weights already assigned (see
        :func:`repro.topology.apply_traffic_model`).
    early_adopter_asns:
        AS numbers of the early adopters (ISPs, CPs or stubs).
    config:
        Game parameters; defaults to :class:`SimulationConfig()`.
    cache:
        Optional shared :class:`RoutingCache` (reusable across runs on
        the same graph — by far the dominant setup cost).
    player_asns:
        Restrict the decision makers to these ISPs (default: every
        ISP).  Used by the theory gadgets, whose constructions hold a
        scaffold of "fixed" nodes still while two strategic nodes play
        (Appendix K: "there are many simple gadgets we could construct
        to ensure a particular node remains stuck; to reduce clutter we
        omit these").
    thresholds:
        Optional per-node threshold array overriding ``config.theta``
        (see :mod:`repro.core.thresholds`, §8.2).
    pricing:
        Optional :class:`~repro.core.pricing.Pricing` mapping traffic
        to revenue before the update rule compares utilities (§8.4);
        defaults to the paper's linear model.
    memo:
        Optional :class:`StateMemo` shared with other games of the same
        configuration (a theta row): a state one of them evaluated is
        not evaluated again.  Thresholds and pricing only enter the
        comparison, so they may differ between the games.
    """

    def __init__(
        self,
        graph: ASGraph,
        early_adopter_asns: Iterable[int],
        config: SimulationConfig | None = None,
        cache: RoutingCache | None = None,
        player_asns: Iterable[int] | None = None,
        thresholds: np.ndarray | None = None,
        pricing: Pricing | None = None,
        memo: StateMemo | None = None,
    ):
        self.graph = graph
        self.config = config or SimulationConfig()
        if cache is not None and cache.policy_name != self.config.policy:
            # a shared cache is authoritative for its routing structures;
            # silently honouring a *different* explicit config.policy would
            # mix rankings, so that combination is rejected outright
            if self.config.policy != DEFAULT_POLICY:
                raise ValueError(
                    f"config.policy={self.config.policy!r} conflicts with the "
                    f"shared cache's policy {cache.policy_name!r}; pass a cache "
                    "built with the same policy (or drop one of the two)"
                )
            self.config = dataclasses.replace(self.config, policy=cache.policy_name)
        self.cache = cache or RoutingCache(graph, policy=self.config.policy)
        self.deriver = StateDeriver(
            graph,
            stub_breaks_ties=self.config.stub_breaks_ties,
            compiled=self.cache.compiled,
        )
        if thresholds is not None and len(thresholds) != graph.n:
            raise ValueError(
                f"thresholds must have length {graph.n}, got {len(thresholds)}"
            )
        self.thresholds = thresholds
        self.pricing = pricing or LINEAR_PRICING
        self.memo = memo if memo is not None else StateMemo()
        adopters = frozenset(graph.index(asn) for asn in early_adopter_asns)
        self.state = DeploymentState.initial(adopters)
        roles = graph.roles
        self._isp_indices = np.flatnonzero(roles == int(ASRole.ISP))
        if player_asns is not None:
            players = {graph.index(asn) for asn in player_asns}
            self._isp_indices = np.asarray(
                [i for i in self._isp_indices if i in players], dtype=np.int64
            )

    def run(self, journal: RunJournal | str | Path | None = None) -> SimulationResult:
        """Run rounds until stability, oscillation, or the round cap.

        A single long simulation (hours at paper scale) can journal its
        progress: pass a :class:`~repro.runtime.journal.RunJournal` (or
        path) and a compact summary of every completed round — plus a
        final outcome record — is durably appended, so a crash leaves a
        readable trace of how far the game got (Fig-3-style per-round
        series are recoverable from it).
        """
        cfg = self.config
        registry = get_registry()
        tracer = get_tracer()
        journal = coerce_journal(journal)
        if journal is not None:
            journal.ensure_header(SIMULATION_JOURNAL_KIND, self._journal_meta())
        self.memo.bind(self._memo_scope())
        # utilities before the process began (nobody secure, §5.5)
        starting = self._evaluate(_EMPTY_STATE).utilities
        rounds: list[RoundRecord] = []
        seen_states: dict[frozenset[int], int] = {self.state.deployers: 0}
        outcome = Outcome.MAX_ROUNDS
        round_timer = registry.histogram("sim.round_seconds")
        guard = current_guard()
        with tracer.span("simulation", n=self.graph.n, theta=cfg.theta):
            for index in range(1, cfg.max_rounds + 1):
                # round boundary: every completed round is already
                # journaled, so an expired budget loses no work
                guard.check_deadline(f"simulation round {index}")
                with tracer.span("round", index=index), round_timer.time():
                    record = self._play_round(index)
                    rounds.append(record)
                    if journal is not None:
                        journal.append(self._round_summary(record))
                    if not record.turned_on and not record.turned_off:
                        outcome = Outcome.STABLE
                        break
                    self.state = self.state.with_flips(
                        turn_on=record.turned_on, turn_off=record.turned_off
                    )
                    key = self.state.deployers
                    if key in seen_states:
                        outcome = Outcome.OSCILLATION
                        break
                    seen_states[key] = index
            # already in the memo unless the round cap cut the game short
            final = self._evaluate(self.state)

        if journal is not None:
            journal.append({
                "type": "final",
                "outcome": outcome.value,
                "num_rounds": len(rounds),
                "final_secure_ases": int(final.node_secure.sum()),
            })
        return SimulationResult(
            graph=self.graph,
            config=cfg,
            early_adopters=self.state.early_adopters,
            rounds=rounds,
            final_state=self.state,
            final_node_secure=final.node_secure,
            final_utilities=final.utilities,
            starting_utilities=starting,
            outcome=outcome,
            final_secure_pairs=final.secure_pairs,
            num_dests=len(self.cache.destinations),
        )

    def _memo_scope(self) -> dict[str, object]:
        """Everything but the state that an evaluation's numbers depend on."""
        cfg = self.config
        weights = self.cache.graph.weights  # re-applied in place, so digested
        return {
            "cache": self.cache,
            "policy": self.cache.policy_name,
            "utility model": cfg.utility_model,
            "stub_breaks_ties": cfg.stub_breaks_ties,
            "projection engine": cfg.projection,
            "allow_turn_off": cfg.allow_turn_off,
            "player set": self._isp_indices.tobytes(),
            "graph weights": hashlib.blake2b(weights.tobytes()).digest(),
        }

    def _evaluate(self, state: DeploymentState, project: bool = False) -> StateEvaluation:
        """The memo's evaluation of ``state``, computed here if it is missing.

        With ``project`` it also carries the flip projection of every
        decision maker.  This is the only place a :class:`RoundData`
        lives: at most one per call, dropped on return.
        """
        cfg = self.config
        registry = get_registry()
        evaluation = self.memo.get(state)
        if evaluation is not None and not (project and evaluation.projections is None):
            registry.counter("sim.state_memo_hits").inc()
            return evaluation
        rd = compute_round_data(self.cache, self.deriver, state, cfg.utility_model)
        registry.counter("sim.states_evaluated").inc()
        if evaluation is None:
            rd.node_secure.setflags(write=False)
            rd.utilities.setflags(write=False)
            evaluation = self.memo[state] = StateEvaluation(
                state=state,
                node_secure=rd.node_secure,
                utilities=rd.utilities,
                secure_pairs=int(np.count_nonzero(rd.sec_matrix)),
            )
        if project:
            proj_start = time.perf_counter() if registry.enabled else 0.0
            jobs = self._jobs(state)
            evaluation.projections = {
                isp: proj for (isp, _), proj in zip(jobs, self._project_jobs(rd, jobs))
            }
            if registry.enabled:
                registry.histogram("sim.projection_seconds").observe(
                    time.perf_counter() - proj_start
                )
        return evaluation

    def _journal_meta(self) -> dict:
        graph = self.graph
        return {
            "num_ases": graph.n,
            "theta": self.config.theta,
            "utility_model": self.config.utility_model.value,
            "stub_breaks_ties": self.config.stub_breaks_ties,
            "policy": self.cache.policy_name,
            "max_rounds": self.config.max_rounds,
            "early_adopters": sorted(
                graph.asn(i) for i in self.state.early_adopters
            ),
        }

    def _round_summary(self, record: RoundRecord) -> dict:
        graph = self.graph
        return {
            "type": "round",
            "index": record.index,
            "secure_ases": record.num_secure_ases,
            "turned_on": sorted(graph.asn(i) for i in record.turned_on),
            "turned_off": sorted(graph.asn(i) for i in record.turned_off),
        }

    def _theta_of(self, isp: int) -> float:
        if self.thresholds is not None:
            return float(self.thresholds[isp])
        return self.config.theta

    def _play_round(self, index: int) -> RoundRecord:
        """Project the state if nobody has yet, then compare against theta."""
        registry = get_registry()
        evaluation = self._evaluate(self.state, project=True)
        projections = evaluation.projections
        turned_on: list[int] = []
        turned_off: list[int] = []
        for isp, proj in projections.items():
            if self.pricing.improves(
                float(evaluation.utilities[isp]), proj.utility, self._theta_of(isp)
            ):
                (turned_on if proj.turning_on else turned_off).append(isp)

        if registry.enabled:
            registry.counter("sim.rounds").inc()
            registry.counter("sim.decision_makers_evaluated").inc(len(projections))
            registry.counter("sim.flips_on").inc(len(turned_on))
            registry.counter("sim.flips_off").inc(len(turned_off))

        return RoundRecord(
            index=index,
            state=evaluation.state,
            node_secure=evaluation.node_secure,
            utilities=evaluation.utilities if self.config.record_utilities else None,
            projections=dict(projections),
            turned_on=turned_on,
            turned_off=turned_off,
        )

    def _project_jobs(self, rd: RoundData, jobs: list[tuple[int, bool]]) -> list[Projection]:
        """Evaluate the round's flip projections, in one stack or fanned out.

        With ``config.workers > 1`` each worker process stacks one
        contiguous run of the jobs (fork copy-on-write; only index pairs
        and scalar-sized projections cross the pipes — see
        :func:`repro.parallel.engine.parallel_project_flips`).
        """
        cfg = self.config
        if cfg.workers > 1 and len(jobs) > 1:
            from repro.parallel.engine import parallel_project_flips

            return parallel_project_flips(
                self.cache, self.deriver, rd, jobs,
                model=cfg.utility_model, projection=cfg.projection,
                workers=cfg.workers,
            )
        return project_flips(
            self.cache, self.deriver, rd, jobs, cfg.utility_model, cfg.projection
        )

    def _jobs(self, state: DeploymentState) -> list[tuple[int, bool]]:
        """``(isp, turning_on)`` per decision maker of ``state``, turn-ons first."""
        deployers = state.deployers
        jobs = [(int(i), True) for i in self._isp_indices if i not in deployers]
        if self.config.turn_off_enabled:
            # Theorem 6.2 is enforced by turn_off_enabled; early adopters
            # are pinned and never reconsider.
            jobs.extend(
                (int(i), False) for i in self._isp_indices
                if i in deployers and i not in state.early_adopters
            )
        return jobs


def run_deployment(
    graph: ASGraph,
    early_adopter_asns: Iterable[int],
    config: SimulationConfig | None = None,
    cache: RoutingCache | None = None,
    player_asns: Iterable[int] | None = None,
    thresholds: np.ndarray | None = None,
    pricing: Pricing | None = None,
    journal: RunJournal | str | Path | None = None,
    memo: StateMemo | None = None,
) -> SimulationResult:
    """One-call wrapper around :class:`DeploymentSimulation`."""
    sim = DeploymentSimulation(
        graph, early_adopter_asns, config, cache, player_asns, thresholds, pricing, memo
    )
    return sim.run(journal=journal)
