"""Market-driven S*BGP deployment simulator.

Reproduction of Gill, Schapira & Goldberg, *"Let the Market Drive
Deployment: A Strategy for Transitioning to BGP Security"* (SIGCOMM
2011).  See DESIGN.md for the system inventory and EXPERIMENTS.md for
the paper-vs-measured record.

Quickstart::

    from repro import build_environment, run_case_study

    env = build_environment(n=1000, x=0.10)
    report = run_case_study(env, theta=0.05)
    print(f"{report.fraction_secure_ases:.0%} of ASes secure")

Subpackages:

- :mod:`repro.topology` — AS graphs: generator, CAIDA I/O, augmentation;
- :mod:`repro.routing`  — Gao-Rexford policy routing, tiebreak sets,
  the fast routing-tree algorithm;
- :mod:`repro.core`     — the deployment game: utilities, projections,
  myopic best-response dynamics, metrics;
- :mod:`repro.protocol` — RPKI / S-BGP / soBGP message-level substrate
  and the attack library;
- :mod:`repro.gadgets`  — the paper's theory constructions, runnable;
- :mod:`repro.runtime`  — resilience layer: atomic persistence, run
  journals (checkpoint/resume), deadlines and memory budgets;
- :mod:`repro.experiments` — the harness regenerating every table and
  figure.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.config import SimulationConfig, UtilityModel
    from repro.core.dynamics import DeploymentSimulation, SimulationResult, run_deployment
    from repro.experiments.case_study import run_case_study
    from repro.experiments.setup import build_environment
    from repro.experiments.sweeps import run_sweep
    from repro.topology.generator import generate_topology
    from repro.topology.graph import ASGraph
    from repro.topology.traffic import apply_traffic_model

#: the module each quickstart name is defined in; ``import repro`` loads
#: none of them, so an entry point that needs no simulation (``sbgp-sim
#: serve`` before its first job, ``validate-graph``) never pays for numpy
_HOMES = {
    "ASGraph": "repro.topology.graph",
    "DeploymentSimulation": "repro.core.dynamics",
    "SimulationConfig": "repro.core.config",
    "SimulationResult": "repro.core.dynamics",
    "UtilityModel": "repro.core.config",
    "apply_traffic_model": "repro.topology.traffic",
    "build_environment": "repro.experiments.setup",
    "generate_topology": "repro.topology.generator",
    "run_case_study": "repro.experiments.case_study",
    "run_deployment": "repro.core.dynamics",
    "run_sweep": "repro.experiments.sweeps",
}


def __getattr__(name: str) -> object:
    """Resolve a quickstart name on first use (PEP 562)."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [
    "ASGraph",
    "DeploymentSimulation",
    "SimulationConfig",
    "SimulationResult",
    "UtilityModel",
    "__version__",
    "apply_traffic_model",
    "build_environment",
    "generate_topology",
    "run_case_study",
    "run_deployment",
    "run_sweep",
]
