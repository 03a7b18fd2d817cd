"""The five library workloads: inputs, the timed operation, result digests.

Every workload is ``build`` (the set-up users pay: ``build_environment``)
plus ``run`` (the operation once set up).  Both take the size and seed
the caller chose and touch the program only through its public
functions.  ``digest`` turns a result into integers and strings, so the
golden file survives numpy versions and is identical across kernel
backends.

The ``service`` workload drives a daemon over HTTP and lives in
``service.py``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Callable

from repro.core.config import SimulationConfig, UtilityModel
from repro.experiments.attack_matrix import run_attack_matrix
from repro.experiments.case_study import run_case_study
from repro.experiments.setup import ExperimentEnv, build_environment
from repro.experiments.sweeps import run_sweep
from repro.routing.backends import load_backend

#: the seed of the timed inputs and of ``golden.json`` (the program's own
#: default environment seed)
CANONICAL_SEED = 2011

THETA = 0.05
SWEEP_THETAS = (0.0, 0.05, 0.30)
SWEEP_SETS = ("top-5", "5-cps", "cps+top-5")
PAPER_SET = "cps+top-5"
#: sampled destinations at N=8000 (the check size keeps the ratio)
PAPER_DESTS = 128

# named explicitly: a scenario or policy registered later must not
# change what this workload computes
ATTACK_SCENARIOS = ("origin_hijack", "subprefix_hijack", "route_leak", "forged_origin")
ATTACK_POLICIES = (
    "security_3rd", "security_2nd", "security_1st", "sp_first", "sticky_primaries",
)
ATTACK_STRATEGIES = ("top_isp_first", "random")
ATTACK_LEVELS = (0.0, 0.25, 0.5)
ATTACK_PAIRS = 16


class ResultMismatch(AssertionError):
    """An operation returned something the benchmark can show is wrong."""


def cell_digest(n: int, cell: Any) -> list:
    """One sweep cell (object or its JSON dict) as integers and strings."""
    get = cell.get if isinstance(cell, dict) else lambda k: getattr(cell, k)
    return [
        get("adopters"), f"{get('theta'):g}", int(get("num_rounds")),
        get("outcome"), round(get("fraction_secure_ases") * n),
    ]


def matrix_digest(n: int, cells: list) -> list[list]:
    """Attack-matrix cells (objects or JSON dicts): fooled-AS counts, not fractions."""
    rows = []
    for cell in cells:
        get = cell.get if isinstance(cell, dict) else lambda k, c=cell: getattr(c, k)
        samples = int(get("samples"))
        rows.append([
            get("scenario"), get("policy"), get("strategy"), f"{get('level'):g}",
            samples, round(get("fraction_secure") * n),
            round(get("mean_fraction_fooled") * samples * n),
            round(get("max_fraction_fooled") * n), get("outcome"),
        ])
    return rows


def game_config(workers: int) -> SimulationConfig:
    return SimulationConfig(
        theta=THETA, utility_model=UtilityModel.OUTGOING, workers=workers
    )


def _game_digest(env: ExperimentEnv, report: Any) -> dict:
    result, graph = report.result, env.graph
    return {
        "adopters": sorted(report.early_adopter_asns),
        "secure_ases_per_round": result.secure_ases_per_round(),
        "num_rounds": result.num_rounds,
        "outcome": result.outcome.value,
        "turned_on": [
            sorted(graph.asn(i) for i in record.turned_on) for record in result.rounds
        ],
    }


def named_sets(env: ExperimentEnv, names: tuple[str, ...]) -> dict[str, list[int]]:
    menu = env.adopter_sets()
    return {name: menu[name] for name in names}


def _run_sweep_with_resume(env: ExperimentEnv, tmp: Path, seed: int) -> list:
    """A fresh-journal grid, then the resume of the complete journal."""
    journal = tmp / "sweep.jsonl"
    journal.unlink(missing_ok=True)
    sets = named_sets(env, SWEEP_SETS)
    cells = run_sweep(env, thetas=SWEEP_THETAS, adopter_sets=sets, journal=journal)
    resumed = run_sweep(env, thetas=SWEEP_THETAS, adopter_sets=sets, journal=journal)
    if resumed != cells:
        raise ResultMismatch("sweep: resumed journal differs from the fresh run")
    return cells


def _build_paper_shape(n: int, seed: int) -> ExperimentEnv:
    # an unusable explicit backend degrades to numpy without an error;
    # loading it first turns that into a failed operation here
    load_backend("cext")
    env = build_environment(
        n=n, seed=seed, sample_destinations=n * PAPER_DESTS // 8000, backend="cext"
    )
    if env.cache.backend_name != "cext":
        raise ResultMismatch(
            f"paper_shape: cache runs on {env.cache.backend_name!r}, not cext"
        )
    return env


def _run_attack_matrix(env: ExperimentEnv, tmp: Path, seed: int) -> list:
    return run_attack_matrix(
        env, scenarios=ATTACK_SCENARIOS, policies=ATTACK_POLICIES,
        strategies=ATTACK_STRATEGIES, levels=ATTACK_LEVELS,
        samples=ATTACK_PAIRS, seed=seed,
    )


@dataclasses.dataclass(frozen=True)
class Workload:
    """One library workload at its timed size (``n``) and its check size."""

    name: str
    n: int
    check_n: int
    build: Callable[[int, int], ExperimentEnv]
    run: Callable[[ExperimentEnv, Path, int], Any]
    digest: Callable[[ExperimentEnv, Any], Any]


LIBRARY = {
    w.name: w for w in (
        Workload(
            "game", 1000, 200,
            build=lambda n, seed: build_environment(n=n, seed=seed),
            run=lambda env, tmp, seed: run_case_study(env, config=game_config(1)),
            digest=_game_digest,
        ),
        Workload(
            "game_w2", 1000, 200,
            build=lambda n, seed: build_environment(n=n, seed=seed, workers=2),
            run=lambda env, tmp, seed: run_case_study(env, config=game_config(2)),
            digest=_game_digest,
        ),
        Workload(
            "sweep", 500, 150,
            build=lambda n, seed: build_environment(n=n, seed=seed),
            run=_run_sweep_with_resume,
            digest=lambda env, cells: [cell_digest(env.graph.n, c) for c in cells],
        ),
        Workload(
            "paper_shape", 8000, 1000,
            build=_build_paper_shape,
            run=lambda env, tmp, seed: run_sweep(
                env, thetas=(THETA,), adopter_sets=named_sets(env, (PAPER_SET,))
            ),
            digest=lambda env, cells: [cell_digest(env.graph.n, c) for c in cells],
        ),
        Workload(
            "attack_matrix", 1000, 200,
            build=lambda n, seed: build_environment(n=n, seed=seed),
            run=_run_attack_matrix,
            digest=lambda env, cells: matrix_digest(env.graph.n, cells),
        ),
    )
}
