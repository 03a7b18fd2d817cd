"""File discovery, per-file linting, and result aggregation.

Two granularities share one parse: every file is read and parsed once,
the per-file rules walk each tree, and (under ``--program``) the
whole-program pass reuses the same trees to build its project index.
Unused-suppression accounting (RPR010) is deferred until after both
passes so a waiver consumed by a program-level finding is not reported
stale.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.analysis.base import FileContext, Rule, Walker
from repro.analysis.findings import PARSE_ERROR, UNUSED_SUPPRESSION, Finding
from repro.analysis.rules import ALL_RULES

if TYPE_CHECKING:
    from repro.analysis.program import ProgramSummary

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".ruff_cache", ".venv"})


@dataclasses.dataclass(frozen=True)
class LintResult:
    """All findings from one lint run, plus coverage accounting."""

    findings: tuple[Finding, ...]
    files_checked: int
    program: "ProgramSummary | None" = None

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    seen.add(sub)
        elif path.suffix == ".py":
            seen.add(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return sorted(seen)


def module_for_path(path: str | Path) -> str | None:
    """Dotted module path when ``path`` sits under a ``repro`` package.

    Package-scoped rule exemptions key off this; files outside the
    package (scripts/, benchmarks/) get None and therefore the strict,
    no-exemption treatment.
    """
    parts = Path(path).resolve().parts
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    mod_parts = list(parts[idx:])
    mod_parts[-1] = mod_parts[-1].removesuffix(".py")
    if mod_parts[-1] == "__init__":
        mod_parts.pop()
    return ".".join(mod_parts)


def _parse_error_finding(path: str | Path, exc: SyntaxError | ValueError) -> Finding:
    line = getattr(exc, "lineno", None) or 1
    col = (getattr(exc, "offset", None) or 0) + 1
    return Finding(
        path=str(path),
        line=line,
        col=col,
        code=PARSE_ERROR,
        message=f"file could not be parsed: {exc.msg if isinstance(exc, SyntaxError) else exc}",
        rule="parse-error",
    )


def lint_paths(
    paths: Sequence[str | Path],
    rules: list[Rule] | None = None,
    program: bool = False,
    program_select: frozenset[str] | None = None,
    reference_roots: Sequence[str | Path] | None = None,
    graph_out: str | Path | None = None,
) -> LintResult:
    """Lint every .py file reachable from ``paths``.

    With ``program=True`` the whole-program pass (RPR015/016/017) runs
    over the same parse trees; ``program_select`` narrows its rules,
    ``reference_roots`` adds use-only roots for dead-API analysis, and
    ``graph_out`` writes the package import graph as DOT.
    """
    active = list(ALL_RULES) if rules is None else rules
    findings: list[Finding] = []
    files = iter_python_files(paths)

    contexts: list[tuple[FileContext, ast.AST]] = []
    for path in files:
        source = Path(path).read_text(encoding="utf-8")
        ctx = FileContext(path, source, module_for_path(path))
        try:
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, ValueError) as exc:
            findings.append(_parse_error_finding(path, exc))
            continue
        Walker(ctx, active).run(tree)
        contexts.append((ctx, tree))

    summary: "ProgramSummary | None" = None
    active_codes = frozenset(r.code for r in active)
    if program:
        from repro.analysis.program import (
            program_codes,
            render_dot,
            run_program_pass,
        )

        prog_findings, summary, index = run_program_pass(
            contexts,
            paths,
            selected=program_select,
            reference_roots=reference_roots,
        )
        findings.extend(prog_findings)
        active_codes |= program_codes() if program_select is None else (
            program_codes() & program_select
        )
        if graph_out is not None:
            from repro.analysis.program.layers import find_manifest
            from repro.runtime.atomic import atomic_write_text

            atomic_write_text(graph_out, render_dot(index, find_manifest(paths)))

    # RPR010 runs last: program-level findings above have already marked
    # the waivers they consumed as used.
    for ctx, _tree in contexts:
        findings.extend(ctx.findings)
        for line, code in ctx.suppressions.unused(active_codes):
            findings.append(
                Finding(
                    path=str(ctx.path),
                    line=line,
                    col=1,
                    code=UNUSED_SUPPRESSION,
                    message=(
                        f"unused suppression: {code} does not fire on this line; "
                        "remove the waiver so it cannot mask a future violation"
                    ),
                    rule="unused-suppression",
                )
            )
    return LintResult(
        findings=tuple(sorted(findings)), files_checked=len(files), program=summary
    )
