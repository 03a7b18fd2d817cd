"""Attack-impact metrics over deployment states.

Backs the §2.2.1 comparison:

- *status quo*: a random misbehaving AS attracts about half of all
  ASes' traffic on average;
- *proposed end state* (every ISP full S*BGP, every stub simplex): the
  only remaining vector is an ISP lying to its own simplex stubs, so a
  random attacker's average impact collapses to (roughly) its own stub
  cone — 80% of ISPs have < 7 stub customers.

Sampling is split from simulation so the attack matrix can evaluate
one seeded pair sample across every (scenario, policy, strategy,
level) cell: :func:`sample_pairs` draws the pairs,
:func:`simulate_attacks_batched` runs them on the kernel fast path,
and :func:`impact_from_outcomes` folds the results.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterable

import numpy as np

from repro.core.state import DeploymentState, StateDeriver
from repro.routing.compiled import CompiledGraph
from repro.routing.policy import DEFAULT_POLICY
from repro.security.hijack import HijackOutcomes, simulate_attacks_batched
from repro.security.scenarios import DEFAULT_SCENARIO
from repro.topology.graph import ASGraph


@dataclasses.dataclass(frozen=True)
class AttackImpact:
    """Average hijack impact over sampled (attacker, victim) pairs."""

    samples: int
    mean_fraction_fooled: float
    max_fraction_fooled: float


def sample_pairs(
    graph: ASGraph,
    samples: int = 20,
    seed: int = 0,
    attacker_pool: Iterable[int] | None = None,
    victim_pool: Iterable[int] | None = None,
) -> list[tuple[int, int]]:
    """Seeded (victim, attacker) pairs, attacker != victim.

    The draw order (attacker first, then victim, rejecting collisions)
    is pinned: the attack matrix relies on one seed producing the same
    pair sample in every cell, so per-cell differences are pure policy
    / scenario / deployment effects.
    """
    rng = random.Random(seed)
    attackers = (
        list(attacker_pool) if attacker_pool is not None else list(range(graph.n))
    )
    victims = (
        list(victim_pool) if victim_pool is not None else list(range(graph.n))
    )
    pairs: list[tuple[int, int]] = []
    guard = 0
    while len(pairs) < samples and guard < 50 * samples:
        guard += 1
        attacker = rng.choice(attackers)
        victim = rng.choice(victims)
        if attacker == victim:
            continue
        pairs.append((victim, attacker))
    return pairs


def impact_from_outcomes(outcomes: HijackOutcomes) -> AttackImpact:
    """Fold the pairs' outcomes into the summary statistics: the fooled
    ASes of each pair over all the other ASes, averaged and maximised."""
    n = outcomes.routes_to_attacker.shape[1]
    fractions = outcomes.num_fooled / max(1, n - 2)
    return AttackImpact(
        samples=len(fractions),
        mean_fraction_fooled=float(np.mean(fractions)) if len(fractions) else 0.0,
        max_fraction_fooled=float(np.max(fractions)) if len(fractions) else 0.0,
    )


def sample_attack_impact(
    graph: ASGraph,
    node_secure: np.ndarray,
    breaks_ties: np.ndarray,
    samples: int = 20,
    seed: int = 0,
    attacker_pool: Iterable[int] | None = None,
    victim_pool: Iterable[int] | None = None,
    attacker_convinces_own_stubs: bool | None = None,
    drop_unvalidated: bool = False,
    scenario: str = DEFAULT_SCENARIO,
    policy: str = DEFAULT_POLICY,
    backend: str | None = None,
    compiled: CompiledGraph | None = None,
) -> AttackImpact:
    """Mean fraction of ASes fooled across random attacker/victim pairs.

    Runs on the batched multi-origin kernel (`simulate_attacks_batched`)
    — the scalar reference in :mod:`repro.security.hijack` exists for
    the differential suite, not for sampling at scale.  ``compiled`` is
    ``graph``'s :class:`~repro.routing.compiled.CompiledGraph` when the
    caller holds one (built here otherwise).
    """
    pairs = sample_pairs(
        graph, samples=samples, seed=seed,
        attacker_pool=attacker_pool, victim_pool=victim_pool,
    )
    outcomes = simulate_attacks_batched(
        graph, pairs, node_secure, breaks_ties,
        attacker_convinces_own_stubs=attacker_convinces_own_stubs,
        drop_unvalidated=drop_unvalidated,
        scenario=scenario, policy=policy, backend=backend, compiled=compiled,
    )
    return impact_from_outcomes(outcomes)


def impact_for_state(
    graph: ASGraph,
    deriver: StateDeriver,
    state: DeploymentState,
    samples: int = 20,
    seed: int = 0,
    **kwargs,
) -> AttackImpact:
    """:func:`sample_attack_impact` with flags derived from a game state,
    on the deriver's compiled graph."""
    node_secure = deriver.node_secure(state)
    return sample_attack_impact(
        graph, node_secure, deriver.breaks_ties(node_secure),
        samples=samples, seed=seed, compiled=deriver.compiled, **kwargs,
    )


def end_state_everyone_secure(graph: ASGraph) -> DeploymentState:
    """The §2.2.1 end state: every ISP and CP deploys (stubs simplex)."""
    from repro.topology.relationships import ASRole

    roles = graph.roles
    deployers = frozenset(
        i for i in range(graph.n)
        if roles[i] in (int(ASRole.ISP), int(ASRole.CP))
    )
    return DeploymentState(deployers, frozenset())
