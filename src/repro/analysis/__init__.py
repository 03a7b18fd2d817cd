"""Project-invariant static analysis (``sbgp-lint``).

The project keeps cross-cutting invariants that ordinary tests cannot
see — every result file goes through :mod:`repro.runtime.atomic`,
routing structures are reached only via the :class:`RoutingCache` /
policy-registry APIs, randomness always flows from a seeded
``numpy.random.Generator``.  This package machine-checks them, the same
way the bench gate machine-checks kernel performance.

The linter is a single-pass AST walker over ``src/``, ``scripts/`` and
``benchmarks/`` with one visitor-based :class:`~repro.analysis.base.Rule`
per invariant (codes ``RPR001``…).  Findings can be silenced per line
with ``# repro-lint: disable=CODE`` — and a suppression that no longer
fires is itself reported (``RPR010``), so waivers cannot outlive the
code they excused.

Entry points: ``python -m repro.analysis`` or the ``sbgp-lint`` console
script; ``make lint`` and the CI ``lint`` job run it blocking.
"""

from __future__ import annotations

from repro.analysis.base import FileContext, Rule
from repro.analysis.engine import LintResult, lint_paths
from repro.analysis.findings import PARSE_ERROR, UNUSED_SUPPRESSION, Finding
from repro.analysis.rules import ALL_RULES, get_rules

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "LintResult",
    "PARSE_ERROR",
    "Rule",
    "UNUSED_SUPPRESSION",
    "get_rules",
    "lint_paths",
]
