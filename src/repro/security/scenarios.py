"""Attack scenarios and deployment strategies, as pluggable registries.

PR 4 made the routing *ranking* a first-class value; this module does
the same for the *threat model* and for the *path to deployment*, so
the attack × policy × deployment-strategy matrix (Lychev et al., "Is
the Juice Worth the Squeeze?"; Barrett et al., "Ain't How You Deploy",
arXiv 2408.15970 — both in PAPERS.md) is spanned by three registries
instead of hardcoded special cases.

An :class:`AttackScenario` is a frozen description of what the attacker
announces and who can tell:

- ``origin_hijack``    the attacker originates the victim's exact
  prefix (the §2.2.1 baseline — both announcements compete everywhere);
- ``subprefix_hijack`` the attacker originates a *more-specific*
  prefix: longest-prefix match means the victim's covering announcement
  never competes (``victim_originates=False``), and ROV-capable
  validators drop the invalid announcement outright
  (``validators_drop=True``);
- ``route_leak``       the attacker picks its route to the victim
  honestly but re-exports it to *every* neighbor in violation of GR2
  (``attacker_leaks=True``); path signatures still verify, so S*BGP
  cannot reject it — the interception is visible only as traffic
  through the attacker;
- ``forged_origin``    the attacker prepends the victim's AS so origin
  validation passes, at the cost of one extra hop
  (``attacker_path_offset=1``); only full path validation (the
  ``drop_unvalidated`` end state) catches it.

Every scenario carries the §2.2.1 simplex-stub residual vector
(``gullible_stubs``): the attacker's own simplex stub customers cannot
validate and accept their provider's word.

Construction and registry mutation are confined to this module (lint
rule RPR014): journal resume guards, job-spec digests and telemetry
labels all key on registered names, so an anonymous scenario built
elsewhere would be invisible to provenance checks — resolve scenarios
via :func:`get_scenario` / :func:`available_scenarios` instead.

A :class:`DeploymentStrategy` answers "who is secure at deployment
level f?" and unifies the static orderings of
:mod:`repro.core.adopters` with the market-driven dynamics:

- ``top_isp_first``  ISPs deploy in descending degree order (the
  paper's Tier-1-first heuristic, §5/§6);
- ``random``         ISPs deploy in a seeded uniform order (Fig. 8's
  weak baseline);
- ``stub_first``     stubs deploy first (as deliberate simplex
  adopters), then ISPs by ascending degree — the adversarial inversion
  of ``top_isp_first``;
- ``market_rounds``  states are replayed from a
  :class:`~repro.core.dynamics.DeploymentSimulation` run's round
  snapshots: level f maps to the earliest round whose secure fraction
  reaches f (the paper's own §3 dynamics as a deployment path).
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.core.state import DeploymentState

if TYPE_CHECKING:  # pragma: no cover - cycle: dynamics imports routing
    from repro.routing.cache import RoutingCache
    from repro.topology.graph import ASGraph


# -- attack scenarios ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AttackScenario:
    """One threat model: what is announced, and who can tell.

    ``victim_originates``
        the victim's legitimate announcement competes with the
        attacker's (False models longest-prefix-match capture by a
        more-specific announcement);
    ``attacker_originates``
        the attacker injects its own origination (False for leaks,
        where the attacker re-exports an honestly selected route);
    ``attacker_path_offset``
        extra hops on the attacker's announced path (1 for forged
        origin: the claimed path already contains the victim);
    ``attacker_leaks``
        the attacker exports its selected route to every neighbor,
        ignoring GR2;
    ``validators_drop``
        fully-validating ASes (secure non-stubs) reject the attack
        route outright even in tie-break mode (ROV semantics for
        invalid more-specifics);
    ``gullible_stubs``
        the attacker's simplex stub customers believe its announcements
        are secure (§2.2.1's residual vector; overridable per call).
    """

    name: str
    description: str
    paper_ref: str = ""
    victim_originates: bool = True
    attacker_originates: bool = True
    attacker_path_offset: int = 0
    attacker_leaks: bool = False
    validators_drop: bool = False
    gullible_stubs: bool = True

    def __post_init__(self) -> None:
        if not self.attacker_originates and not self.attacker_leaks:
            raise ValueError(
                f"scenario {self.name!r} gives the attacker nothing to do: "
                "set attacker_originates or attacker_leaks"
            )
        if self.attacker_path_offset < 0:
            raise ValueError(
                f"attacker_path_offset must be >= 0, got {self.attacker_path_offset}"
            )


_SCENARIOS: dict[str, AttackScenario] = {}
_SCENARIO_ALIASES: dict[str, str] = {}

#: canonical name of the §2.2.1 baseline scenario
DEFAULT_SCENARIO = "origin_hijack"


def register_scenario(
    scenario: AttackScenario, aliases: Iterable[str] = ()
) -> AttackScenario:
    """Add ``scenario`` to the registry (idempotent for identical entries)."""
    existing = _SCENARIOS.get(scenario.name)
    if existing is not None and existing != scenario:
        raise ValueError(
            f"scenario {scenario.name!r} already registered differently"
        )
    _SCENARIOS[scenario.name] = scenario
    for alias in aliases:
        target = _SCENARIO_ALIASES.get(alias)
        if target is not None and target != scenario.name:
            raise ValueError(f"alias {alias!r} already points at {target!r}")
        _SCENARIO_ALIASES[alias] = scenario.name
    return scenario


def get_scenario(scenario: "str | AttackScenario") -> AttackScenario:
    """Resolve a scenario name (or alias, or scenario object)."""
    if isinstance(scenario, AttackScenario):
        return scenario
    name = _SCENARIO_ALIASES.get(scenario, scenario)
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown attack scenario {scenario!r}; choose from "
            f"{available_scenarios()}"
        ) from None


def available_scenarios() -> list[str]:
    """Canonical names of every registered scenario, sorted."""
    return sorted(_SCENARIOS)


register_scenario(
    AttackScenario(
        name="origin_hijack",
        description="attacker originates the victim's exact prefix",
        paper_ref="§2.2.1",
    ),
    aliases=("hijack", "prefix_hijack"),
)

register_scenario(
    AttackScenario(
        name="subprefix_hijack",
        description="more-specific announcement; ROV validators drop it",
        paper_ref="§2.2.1 / RFC 6811",
        victim_originates=False,
        validators_drop=True,
    ),
    aliases=("subprefix",),
)

register_scenario(
    AttackScenario(
        name="route_leak",
        description="honestly selected route re-exported against GR2",
        paper_ref="Lychev et al. / RFC 7908",
        attacker_originates=False,
        attacker_leaks=True,
    ),
    aliases=("leak",),
)

register_scenario(
    AttackScenario(
        name="forged_origin",
        description="path-shortening forgery: origin checks pass, one hop longer",
        paper_ref="Lychev et al. §2",
        attacker_path_offset=1,
    ),
    aliases=("path_shortening",),
)


# -- deployment strategies ----------------------------------------------

#: a strategy builder: ``(graph, levels, **context) -> [(level, state)]``
StrategyBuilder = Callable[..., "list[tuple[float, DeploymentState]]"]


@dataclasses.dataclass(frozen=True)
class DeploymentStrategy:
    """A named answer to "who has deployed at level ``f``?".

    ``builder`` maps deployment levels in ``[0, 1]`` to
    :class:`~repro.core.state.DeploymentState` values; it is excluded
    from equality so registry idempotence keys on the metadata.
    """

    name: str
    description: str
    paper_ref: str = ""
    builder: StrategyBuilder = dataclasses.field(
        default=None, compare=False, repr=False  # type: ignore[arg-type]
    )

    def states(
        self,
        graph: "ASGraph",
        levels: Iterable[float],
        *,
        seed: int = 0,
        theta: float = 0.05,
        cache: "RoutingCache | None" = None,
        adopters: Iterable[int] | None = None,
        max_rounds: int = 40,
    ) -> list[tuple[float, DeploymentState]]:
        """``(level, state)`` per requested level (levels preserved).

        ``seed`` feeds the ``random`` ordering; ``theta`` / ``cache`` /
        ``adopters`` / ``max_rounds`` parameterise the
        ``market_rounds`` replay and are ignored by static orderings.
        """
        levels = [float(f) for f in levels]
        for f in levels:
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"deployment level must be in [0, 1], got {f}")
        return self.builder(
            graph, levels, seed=seed, theta=theta, cache=cache,
            adopters=adopters, max_rounds=max_rounds,
        )


_STRATEGIES: dict[str, DeploymentStrategy] = {}


def register_strategy(strategy: DeploymentStrategy) -> DeploymentStrategy:
    """Add ``strategy`` to the registry (idempotent for equal metadata)."""
    existing = _STRATEGIES.get(strategy.name)
    if existing is not None and existing != strategy:
        raise ValueError(
            f"deployment strategy {strategy.name!r} already registered differently"
        )
    _STRATEGIES[strategy.name] = strategy
    return strategy


def get_strategy(strategy: "str | DeploymentStrategy") -> DeploymentStrategy:
    """Resolve a strategy name (or strategy object) to the object."""
    if isinstance(strategy, DeploymentStrategy):
        return strategy
    try:
        return _STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown deployment strategy {strategy!r}; choose from "
            f"{available_strategies()}"
        ) from None


def available_strategies() -> list[str]:
    """Canonical names of every registered strategy, sorted."""
    return sorted(_STRATEGIES)


def _states_from_order(
    order: list[int], levels: list[float]
) -> list[tuple[float, DeploymentState]]:
    """Prefixes of a fixed deployment order, one per level."""
    out = []
    for f in levels:
        k = math.ceil(f * len(order))
        out.append((f, DeploymentState.initial(order[:k])))
    return out


def _degree_ranked_isps(graph: "ASGraph", descending: bool) -> list[int]:
    from repro.topology.stats import degree_array

    degrees = degree_array(graph)
    sign = -1 if descending else 1
    return sorted(
        (int(i) for i in graph.isp_indices),
        key=lambda i: (sign * int(degrees[i]), i),
    )


def _top_isp_first(graph, levels, *, seed, **_):
    return _states_from_order(_degree_ranked_isps(graph, descending=True), levels)


def _random_order(graph, levels, *, seed, **_):
    order = [int(i) for i in graph.isp_indices]
    random.Random(seed).shuffle(order)
    return _states_from_order(order, levels)


def _stub_first(graph, levels, *, seed, **_):
    from repro.topology.relationships import ASRole

    stubs = [int(i) for i in np.flatnonzero(graph.roles == int(ASRole.STUB))]
    order = stubs + _degree_ranked_isps(graph, descending=False)
    return _states_from_order(order, levels)


def _market_rounds(graph, levels, *, seed, theta, cache, adopters, max_rounds, **_):
    """Replay :class:`DeploymentSimulation` snapshots as deployment levels.

    Level f maps to the state *entering* the earliest round whose
    secure fraction reaches ``f * (final secure fraction)`` — the
    market never reaches literal 100%, so levels are relative to where
    the dynamics actually end up; level 1.0 is the final state.
    """
    from repro.core.config import SimulationConfig
    from repro.core.dynamics import DeploymentSimulation
    from repro.topology.stats import top_by_degree

    if adopters is None:
        adopters = top_by_degree(graph, 5)
    policy = cache.policy_name if cache is not None else "security_3rd"
    config = SimulationConfig(theta=theta, max_rounds=max_rounds, policy=policy)
    result = DeploymentSimulation(graph, adopters, config, cache).run()
    final_secure = max(1, int(result.final_node_secure.sum()))
    snapshots = [
        (r.num_secure_ases / final_secure, r.state) for r in result.rounds
    ]
    snapshots.append((1.0, result.final_state))
    out = []
    for f in levels:
        state = next((s for reached, s in snapshots if reached >= f),
                     result.final_state)
        out.append((f, state))
    return out


register_strategy(
    DeploymentStrategy(
        name="top_isp_first",
        description="ISPs deploy in descending degree order (Tier-1s first)",
        paper_ref="§5-6",
        builder=_top_isp_first,
    )
)

register_strategy(
    DeploymentStrategy(
        name="random",
        description="ISPs deploy in a seeded uniform random order",
        paper_ref="Fig. 8",
        builder=_random_order,
    )
)

register_strategy(
    DeploymentStrategy(
        name="stub_first",
        description="stubs deploy first, then ISPs by ascending degree",
        paper_ref="Barrett et al. (arXiv 2408.15970)",
        builder=_stub_first,
    )
)

register_strategy(
    DeploymentStrategy(
        name="market_rounds",
        description="states replayed from the market dynamics' round snapshots",
        paper_ref="§3.2-3.3",
        builder=_market_rounds,
    )
)
