"""Job specifications: the JSON contract of ``POST /v1/jobs``.

A spec is a plain dict the daemon validates into a :class:`JobSpec`.
Three kinds exist today — ``sweep`` (the theta x adopter-set grid of
Figures 8/9), ``case-study`` (the Section-5 run), and
``attack-matrix`` (the scenario × policy × deployment-strategy grid of
:mod:`repro.experiments.attack_matrix`).  Everything that affects the
result is part of the spec; everything else (priority, deadline) is
scheduling metadata and excluded from the digests.

Digests are the service's identity scheme:

- :func:`spec_digest` identifies the *work* — two submissions with the
  same digest are the same job, so the scheduler coalesces them onto
  one execution and the store keys the job's sweep journal by it (a
  resubmitted job resumes its predecessor's cells after a restart);
- :func:`env_digest` identifies the *environment* (graph + traffic +
  policy) — the :class:`~repro.service.cache.ResultCache` keeps built
  environments by it (and the kernel backend);
- :func:`cell_scope_digest` identifies everything that pins a sweep
  cell's value except ``(adopter set, theta)`` — the cache scopes
  shared cells by it, so overlapping grids share cells only when they
  would compute bit-identical ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Mapping

from repro.routing import backends as kernel_backends
from repro.service.errors import SpecError

#: spec kinds the executor knows how to run
JOB_KINDS = ("sweep", "case-study", "attack-matrix")

#: hard cap on submitted grid size (cells = thetas x adopter sets);
#: the daemon is a shared resource and a fat-fingered grid should be
#: rejected at submit time, not discovered hours later
MAX_CELLS = 4096

#: priority range (higher runs first; FIFO within a priority)
MIN_PRIORITY, MAX_PRIORITY = 0, 9


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """A validated, canonicalised job submission."""

    kind: str
    n: int
    seed: int
    x: float
    policy: str
    augmented: bool
    theta: float                     # case-study only
    thetas: tuple[float, ...]        # sweep only
    adopter_sets: tuple[str, ...]    # sweep only ((), i.e. all, by default)
    stub_breaks_ties: bool
    max_rounds: int
    scenarios: tuple[str, ...]       # attack-matrix only (() = all registered)
    strategies: tuple[str, ...]      # attack-matrix only (() = all registered)
    policies: tuple[str, ...]        # attack-matrix only (() = all registered)
    levels: tuple[float, ...]        # attack-matrix deployment-level ladder
    attack_samples: int              # attack-matrix (victim, attacker) pairs
    attack_seed: int                 # attack-matrix pair-sample seed
    priority: int
    deadline: float | None           # per-job wall-clock budget (seconds)
    memory_budget: int | None        # per-job budget (bytes)
    kernel_backend: str | None       # execution detail: results bit-identical


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _coerce_number(payload: Mapping[str, Any], key: str, kind: type, default):
    value = payload.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"spec field {key!r} must be a {kind.__name__}: {value!r}") from exc


def _canonical_names(
    payload: Mapping[str, Any], key: str, resolve
) -> tuple[str, ...]:
    """A tuple of registry names, aliases canonicalised via ``resolve``.

    Canonicalising at submit time keeps the digests — and hence
    coalescing and journal reuse — blind to spelling (``"hijack"`` and
    ``"origin_hijack"`` are the same work).  Unknown names raise
    :class:`~repro.service.errors.SpecError` here, not hours later.
    """
    raw = payload.get(key, ())
    _require(
        isinstance(raw, (list, tuple)) and all(isinstance(s, str) for s in raw),
        f"{key} must be an array of names",
    )
    try:
        names = tuple(resolve(name) for name in raw)
    except ValueError as exc:
        raise SpecError(f"{key}: {exc}") from exc
    _require(len(set(names)) == len(names), f"{key} must not repeat")
    return names


def parse_spec(payload: object) -> JobSpec:
    """Validate a submitted JSON payload into a :class:`JobSpec`.

    Raises :class:`~repro.service.errors.SpecError` (HTTP 400) on any
    unknown field, bad type, out-of-range value, or oversized grid —
    the submit path is the only place bad input can be rejected cheaply.
    The policy and scenario registries load here, on first use, not when
    the daemon starts.
    """
    from repro.routing.policy import available_policies, get_policy
    from repro.security import scenarios as scenario_registry

    _require(isinstance(payload, Mapping), "job spec must be a JSON object")
    assert isinstance(payload, Mapping)  # for the type-checker
    known = {f.name for f in dataclasses.fields(JobSpec)}
    unknown = sorted(set(payload) - known)
    _require(not unknown, f"unknown spec fields: {', '.join(unknown)}")

    kind = payload.get("kind", "sweep")
    _require(kind in JOB_KINDS, f"spec kind must be one of {JOB_KINDS}, got {kind!r}")

    n = _coerce_number(payload, "n", int, 1000)
    _require(4 <= n <= 100_000, f"n must be in [4, 100000], got {n}")
    seed = _coerce_number(payload, "seed", int, 2011)
    x = _coerce_number(payload, "x", float, 0.10)
    _require(0.0 <= x <= 1.0, f"x must be in [0, 1], got {x}")

    policy = payload.get("policy", "security_3rd")
    _require(isinstance(policy, str), "policy must be a string")
    try:
        # canonicalise aliases ("gao-rexford" == "security_3rd") so the
        # digests — and hence coalescing and cache sharing — see one name
        policy = get_policy(policy).name
    except ValueError as exc:
        raise SpecError(str(exc)) from exc

    augmented = bool(payload.get("augmented", False))
    stub_breaks_ties = bool(payload.get("stub_breaks_ties", True))
    theta = _coerce_number(payload, "theta", float, 0.05)
    _require(theta >= 0.0, f"theta must be >= 0, got {theta}")

    raw_thetas = payload.get("thetas", (0.0, 0.05, 0.10, 0.20, 0.30, 0.50))
    _require(
        isinstance(raw_thetas, (list, tuple)) and len(raw_thetas) > 0,
        "thetas must be a non-empty array of numbers",
    )
    try:
        thetas = tuple(float(t) for t in raw_thetas)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"thetas must all be numbers: {raw_thetas!r}") from exc
    _require(all(t >= 0.0 for t in thetas), "thetas must all be >= 0")
    _require(len(set(thetas)) == len(thetas), "thetas must not repeat")

    raw_sets = payload.get("adopter_sets", ())
    _require(
        isinstance(raw_sets, (list, tuple))
        and all(isinstance(s, str) for s in raw_sets),
        "adopter_sets must be an array of adopter-set names",
    )
    adopter_sets = tuple(raw_sets)
    _require(
        len(set(adopter_sets)) == len(adopter_sets),
        "adopter_sets must not repeat",
    )

    scenarios = _canonical_names(
        payload, "scenarios", lambda name: scenario_registry.get_scenario(name).name
    )
    strategies = _canonical_names(
        payload, "strategies", lambda name: scenario_registry.get_strategy(name).name
    )
    policies = _canonical_names(
        payload, "policies", lambda name: get_policy(name).name
    )

    raw_levels = payload.get("levels", (0.0, 0.5, 1.0))
    _require(
        isinstance(raw_levels, (list, tuple)) and len(raw_levels) > 0,
        "levels must be a non-empty array of numbers",
    )
    try:
        levels = tuple(float(f) for f in raw_levels)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"levels must all be numbers: {raw_levels!r}") from exc
    _require(
        all(0.0 <= f <= 1.0 for f in levels), "levels must all be in [0, 1]"
    )
    _require(len(set(levels)) == len(levels), "levels must not repeat")

    attack_samples = _coerce_number(payload, "attack_samples", int, 12)
    _require(
        1 <= attack_samples <= 10_000,
        f"attack_samples must be in [1, 10000], got {attack_samples}",
    )
    attack_seed = _coerce_number(payload, "attack_seed", int, 0)

    if kind == "sweep":
        cells = len(thetas) * max(len(adopter_sets), 7)  # 7 = the full menu
        _require(
            cells <= MAX_CELLS,
            f"grid of {cells} cells exceeds the {MAX_CELLS}-cell limit",
        )
    if kind == "attack-matrix":
        cells = (
            (len(scenarios) or len(scenario_registry.available_scenarios()))
            * (len(strategies) or len(scenario_registry.available_strategies()))
            * (len(policies) or len(available_policies()))
            * len(levels)
        )
        _require(
            cells <= MAX_CELLS,
            f"matrix of {cells} cells exceeds the {MAX_CELLS}-cell limit",
        )

    max_rounds = _coerce_number(payload, "max_rounds", int, 100)
    _require(1 <= max_rounds <= 10_000, f"max_rounds must be in [1, 10000], got {max_rounds}")

    priority = _coerce_number(payload, "priority", int, 0)
    _require(
        MIN_PRIORITY <= priority <= MAX_PRIORITY,
        f"priority must be in [{MIN_PRIORITY}, {MAX_PRIORITY}], got {priority}",
    )

    deadline = payload.get("deadline")
    if deadline is not None:
        deadline = _coerce_number(payload, "deadline", float, None)
        _require(deadline > 0, f"deadline must be > 0 seconds, got {deadline}")
    memory_budget = payload.get("memory_budget")
    if memory_budget is not None:
        memory_budget = _coerce_number(payload, "memory_budget", int, None)
        _require(memory_budget > 0, f"memory_budget must be > 0 bytes, got {memory_budget}")

    kernel_backend = payload.get("kernel_backend")
    if kernel_backend is not None:
        _require(isinstance(kernel_backend, str), "kernel_backend must be a string")
        try:
            # reject unknown names at submit time; *unusable* known
            # backends are fine — the executor degrades to numpy
            kernel_backends.get_backend(kernel_backend)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc

    return JobSpec(
        kind=kind, n=n, seed=seed, x=x, policy=policy, augmented=augmented,
        theta=theta, thetas=thetas, adopter_sets=adopter_sets,
        stub_breaks_ties=stub_breaks_ties, max_rounds=max_rounds,
        scenarios=scenarios, strategies=strategies, policies=policies,
        levels=levels, attack_samples=attack_samples, attack_seed=attack_seed,
        priority=priority, deadline=deadline, memory_budget=memory_budget,
        kernel_backend=kernel_backend,
    )


def spec_to_dict(spec: JobSpec) -> dict[str, Any]:
    """JSON form of a spec (round-trips through :func:`parse_spec`)."""
    payload = dataclasses.asdict(spec)
    payload["thetas"] = list(spec.thetas)
    payload["adopter_sets"] = list(spec.adopter_sets)
    payload["scenarios"] = list(spec.scenarios)
    payload["strategies"] = list(spec.strategies)
    payload["policies"] = list(spec.policies)
    payload["levels"] = list(spec.levels)
    return payload


def _digest(payload: dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: spec fields that are scheduling/execution metadata, not work identity
#: (kernel_backend is excluded because backends are bit-identical — the
#: same submission on a different backend is the same work and must
#: coalesce and share cached cells)
_NON_IDENTITY_FIELDS = ("priority", "deadline", "memory_budget", "kernel_backend")


def spec_digest(spec: JobSpec) -> str:
    """Identity of the *work*: everything except scheduling metadata.

    Two submissions differing only in priority/deadline coalesce onto
    one execution (the store keys sweep journals by this digest, so a
    resubmission after a crash resumes the first run's cells).
    """
    payload = spec_to_dict(spec)
    for field in _NON_IDENTITY_FIELDS:
        payload.pop(field, None)
    return _digest(payload)


def env_digest(spec: JobSpec) -> str:
    """Identity of the simulation environment (graph, traffic, policy)."""
    return _digest({
        "n": spec.n, "seed": spec.seed, "x": spec.x,
        "augmented": spec.augmented, "policy": spec.policy,
    })


def cell_scope_digest(spec: JobSpec) -> str:
    """Identity of everything pinning a sweep cell except (set, theta).

    Cells from two jobs may be shared exactly when this digest matches:
    same environment, same tie-break behaviour, same round cap.  The
    theta grid and adopter-set menu are deliberately *excluded* — that
    is the point of sharing across overlapping grids.
    """
    return _digest({
        "env": env_digest(spec),
        "stub_breaks_ties": spec.stub_breaks_ties,
        "max_rounds": spec.max_rounds,
    })
