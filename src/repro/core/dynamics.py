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

from repro.core.config import SimulationConfig
from repro.core.engine import RoundBuffers, RoundData, compute_round_data
from repro.core.pricing import LINEAR_PRICING, Pricing
from repro.core.projection import Projections, project_jobs
from repro.core.state import DeploymentState, StateDeriver
from repro.routing.cache import RoutingCache
from repro.routing.policy import DEFAULT_POLICY
from repro.runtime.errors import StateMemoScopeError
from repro.runtime.guard import current_guard
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer
from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole


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
    projections: Projections | None = None

    @property
    def nbytes(self) -> int:
        """Bytes of the evaluation's arrays."""
        projected = self.projections.nbytes if self.projections is not None else 0
        return self.node_secure.nbytes + self.utilities.nbytes + projected


class StateMemo(dict[DeploymentState, StateEvaluation]):
    """``state -> StateEvaluation`` for games that differ only in theta.

    Keyed by the whole state, because the early adopters steer which
    stubs a flip takes along and who decides.  Everything else an
    evaluation depends on is pinned as the memo's *scope* by the first
    simulation that uses it; a later simulation with another scope
    raises :class:`StateMemoScopeError` instead of reading another
    configuration's numbers.  Owned by whoever knows its inputs stay
    fixed (one theta row of a sweep, or an environment the service keeps
    between jobs), never by the cache: traffic weights may be re-applied
    under a live cache.

    The memo also holds the round kernels' matrices (:attr:`buffers`)
    for every state its games evaluate, so a game's first state
    re-resolves only the rows the previous game's last state left stale.
    """

    _scope: dict[str, object] | None = None

    def __init__(self) -> None:
        super().__init__()
        self.buffers = RoundBuffers()

    def bind(self, scope: dict[str, object]) -> None:
        """Pin ``scope`` at first use; raise if a later one differs."""
        if self._scope is None:
            self._scope = scope
            return
        differing = sorted(k for k, v in scope.items() if self._scope[k] != v)
        if differing:
            raise StateMemoScopeError(differing)

    @property
    def nbytes(self) -> int:
        """Bytes of the evaluations' arrays; the round buffers are not counted."""
        return sum(evaluation.nbytes for evaluation in self.values())

    def release_buffers(self) -> None:
        """Drop the round buffers: the next state evaluated allocates new
        ones and resolves every row."""
        self.buffers = RoundBuffers()

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
    utilities: np.ndarray  # the state's, shared with its evaluation
    projections: Projections  # the state's, shared with its evaluation
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
        """Per-round utility of ``node``, then its final one."""
        out = [float(r.utilities[node]) for r in self.rounds]
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

    def run(self) -> SimulationResult:
        """Run rounds until stability, oscillation, or the round cap."""
        cfg = self.config
        registry = get_registry()
        tracer = get_tracer()
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
                # round boundary: an expired budget stops between rounds
                guard.check_deadline(f"simulation round {index}")
                with tracer.span("round", index=index), round_timer.time():
                    record = self._play_round(index)
                    rounds.append(record)
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
            "player set": self._isp_indices.tobytes(),
            "graph weights": hashlib.blake2b(weights.tobytes()).digest(),
        }

    def _evaluate(self, state: DeploymentState, project: bool = False) -> StateEvaluation:
        """The memo's evaluation of ``state``, computed here if it is missing.

        With ``project`` it also carries the flip projection of every
        decision maker.  This is the only place a :class:`RoundData`
        lives: at most one per call, dropped on return.  Its matrices
        are the memo's :class:`RoundBuffers`, which the next call
        overwrites, so nothing it returns may hold one of them.
        """
        cfg = self.config
        registry = get_registry()
        evaluation = self.memo.get(state)
        if evaluation is not None and not (project and evaluation.projections is None):
            registry.counter("sim.state_memo_hits").inc()
            return evaluation
        rd = compute_round_data(
            self.cache, self.deriver, state, cfg.utility_model, buffers=self.memo.buffers
        )
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
            evaluation.projections = self._project_jobs(rd, *self._jobs(state))
            if registry.enabled:
                registry.histogram("sim.projection_seconds").observe(
                    time.perf_counter() - proj_start
                )
        return evaluation

    def _play_round(self, index: int) -> RoundRecord:
        """Project the state if nobody has yet, then compare against theta:
        update rule (3) for every deciding ISP at once."""
        registry = get_registry()
        evaluation = self._evaluate(self.state, project=True)
        projections = evaluation.projections
        isps = projections.isps
        theta = (
            self.config.theta if self.thresholds is None
            else np.asarray(self.thresholds, dtype=np.float64)[isps]
        )
        flips = self.pricing.improves(evaluation.utilities[isps], projections.utility, theta)
        on = projections.turning_on
        turned_on = isps[flips & on].tolist()
        turned_off = isps[flips & ~on].tolist()

        if registry.enabled:
            registry.counter("sim.rounds").inc()
            registry.counter("sim.decision_makers_evaluated").inc(len(projections))
            registry.counter("sim.flips_on").inc(len(turned_on))
            registry.counter("sim.flips_off").inc(len(turned_off))

        return RoundRecord(
            index=index,
            state=evaluation.state,
            node_secure=evaluation.node_secure,
            utilities=evaluation.utilities,
            projections=projections,
            turned_on=turned_on,
            turned_off=turned_off,
        )

    def _project_jobs(
        self, rd: RoundData, isps: np.ndarray, turning_on: np.ndarray
    ) -> Projections:
        """Evaluate the round's flip projections as one stacked pass.

        ``config.workers`` is not consulted and nothing forks: the
        compiled kernels run each pass's independent rows on the CPUs
        the process may use themselves (DESIGN.md §15, "Row threads").
        """
        cfg = self.config
        return project_jobs(
            self.cache, self.deriver, rd, isps, turning_on, cfg.utility_model,
            cfg.projection,
        )

    def _jobs(self, state: DeploymentState) -> tuple[np.ndarray, np.ndarray]:
        """``(isps, turning_on)`` of the decision makers of ``state``,
        turn-ons first, each in player order."""
        players = self._isp_indices
        deployed = self._member(state.deployers)[players]
        isps = [players[~deployed]]
        if self.config.turn_off_enabled:
            # Theorem 6.2 is enforced by turn_off_enabled; early adopters
            # are pinned and never reconsider.
            isps.append(players[deployed & ~self._member(state.early_adopters)[players]])
        turning_on = np.zeros(sum(map(len, isps)), dtype=bool)
        turning_on[:len(isps[0])] = True
        return np.concatenate(isps).astype(np.int64), turning_on

    def _member(self, nodes: frozenset[int]) -> np.ndarray:
        """``nodes`` as a bool mask over the graph."""
        mask = np.zeros(self.graph.n, dtype=bool)
        mask[np.fromiter(nodes, np.int64, len(nodes))] = True
        return mask


def run_deployment(
    graph: ASGraph,
    early_adopter_asns: Iterable[int],
    config: SimulationConfig | None = None,
    cache: RoutingCache | None = None,
    player_asns: Iterable[int] | None = None,
    thresholds: np.ndarray | None = None,
    pricing: Pricing | None = None,
    memo: StateMemo | None = None,
) -> SimulationResult:
    """One-call wrapper around :class:`DeploymentSimulation`."""
    sim = DeploymentSimulation(
        graph, early_adopter_asns, config, cache, player_asns, thresholds, pricing, memo
    )
    return sim.run()
