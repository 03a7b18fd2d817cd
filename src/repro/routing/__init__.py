"""BGP policy-routing substrate: route classes, tiebreak sets, trees."""

from repro.routing.cache import CacheStats, RoutingCache
from repro.routing.fixpoint import fixpoint_pools
from repro.routing.flows import (
    TrafficShift,
    deployment_traffic_shift,
    link_loads,
    top_loaded_links,
    traffic_shift,
)
from repro.routing.paths import RoutingTree, as_path, path_is_secure, transit_nodes
from repro.routing.policy import (
    Criterion,
    RouteClass,
    RoutingPolicy,
    available_policies,
    exportable_to,
    get_policy,
    policy_table,
    register_policy,
    tie_hash,
    tie_hash_array,
)
from repro.routing.reference import ConvergenceError
from repro.routing.tiebreak import (
    TiebreakStats,
    collect_tiebreak_stats,
    mean_path_length,
    security_sensitive_decision_fraction,
)
from repro.routing.tree import (
    DestRouting,
    RouteInfo,
    compute_dest_routing,
    route_classes_and_lengths,
)
__all__ = [
    "CacheStats",
    "ConvergenceError",
    "Criterion",
    "DestRouting",
    "RouteClass",
    "RouteInfo",
    "RoutingCache",
    "RoutingPolicy",
    "RoutingTree",
    "TiebreakStats",
    "TrafficShift",
    "as_path",
    "available_policies",
    "collect_tiebreak_stats",
    "compute_dest_routing",
    "deployment_traffic_shift",
    "exportable_to",
    "fixpoint_pools",
    "get_policy",
    "policy_table",
    "register_policy",
    "link_loads",
    "mean_path_length",
    "path_is_secure",
    "route_classes_and_lengths",
    "security_sensitive_decision_fraction",
    "tie_hash",
    "tie_hash_array",
    "top_loaded_links",
    "traffic_shift",
    "transit_nodes",
]
