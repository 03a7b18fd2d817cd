"""Attack-resilience quantification under partial deployment (§2.2.1, §6.4)."""

from repro.security.hijack import (
    HijackOutcome,
    simulate_attacks_batched,
    simulate_hijack,
)
from repro.security.metrics import (
    AttackImpact,
    end_state_everyone_secure,
    impact_for_state,
    impact_from_outcomes,
    sample_attack_impact,
    sample_pairs,
)
from repro.security.scenarios import (
    AttackScenario,
    DeploymentStrategy,
    available_scenarios,
    available_strategies,
    get_scenario,
    get_strategy,
)

__all__ = [
    "AttackImpact",
    "AttackScenario",
    "DeploymentStrategy",
    "HijackOutcome",
    "available_scenarios",
    "available_strategies",
    "end_state_everyone_secure",
    "get_scenario",
    "get_strategy",
    "impact_for_state",
    "impact_from_outcomes",
    "sample_attack_impact",
    "sample_pairs",
    "simulate_attacks_batched",
    "simulate_hijack",
]
