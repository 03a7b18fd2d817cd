"""The deployment game: states, utilities, projections, dynamics."""

from repro.core.adopters import (
    STRATEGIES,
    content_providers,
    cps_plus_top_isps,
    greedy_early_adopters,
    no_early_adopters,
    random_isps,
    top_degree_isps,
)
from repro.core.config import ProjectionEngine, SimulationConfig, UtilityModel
from repro.core.diamonds import DiamondCensus, diamond_census
from repro.core.dynamics import (
    DeploymentSimulation,
    Outcome,
    RoundRecord,
    SimulationResult,
    StateEvaluation,
    StateMemo,
    run_deployment,
)
from repro.core.engine import (
    DestState,
    RoundData,
    compute_round_data,
    contributions,
    utilities_for_state,
)
from repro.core.metrics import (
    DeploymentOutcome,
    SecuritySnapshot,
    ZeroSumAnalysis,
    deployment_outcome,
    projection_accuracy,
    security_snapshot,
    snapshot_from_counts,
    zero_sum_analysis,
)
from repro.core.forecast import (
    LocalForecast,
    forecast_error_study,
    local_project_flip,
)
from repro.core.perlink import (
    LinkDeploymentResult,
    best_link_deployment,
    utility_with_links,
)
from repro.core.pricing import LINEAR_PRICING, Pricing, PricingModel
from repro.core.projection import Projection, project_flip, project_flips
from repro.core.state import DeploymentState, StateDeriver
from repro.core.thresholds import (
    degree_scaled_thresholds,
    lognormal_thresholds,
    uniform_thresholds,
)

__all__ = [
    "DeploymentOutcome",
    "DeploymentSimulation",
    "DeploymentState",
    "DestState",
    "DiamondCensus",
    "LINEAR_PRICING",
    "LinkDeploymentResult",
    "LocalForecast",
    "Outcome",
    "Pricing",
    "PricingModel",
    "Projection",
    "ProjectionEngine",
    "RoundData",
    "RoundRecord",
    "STRATEGIES",
    "SecuritySnapshot",
    "SimulationConfig",
    "SimulationResult",
    "StateDeriver",
    "StateEvaluation",
    "StateMemo",
    "UtilityModel",
    "ZeroSumAnalysis",
    "compute_round_data",
    "content_providers",
    "contributions",
    "degree_scaled_thresholds",
    "cps_plus_top_isps",
    "deployment_outcome",
    "diamond_census",
    "forecast_error_study",
    "greedy_early_adopters",
    "local_project_flip",
    "lognormal_thresholds",
    "no_early_adopters",
    "project_flip",
    "project_flips",
    "projection_accuracy",
    "random_isps",
    "run_deployment",
    "security_snapshot",
    "snapshot_from_counts",
    "top_degree_isps",
    "uniform_thresholds",
    "utilities_for_state",
    "utility_with_links",
    "zero_sum_analysis",
    "best_link_deployment",
]
