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

from repro.core import (
    DeploymentSimulation,
    SimulationConfig,
    SimulationResult,
    UtilityModel,
    run_deployment,
)
from repro.experiments import build_environment, run_case_study, run_sweep
from repro.topology import ASGraph, apply_traffic_model, generate_topology

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
