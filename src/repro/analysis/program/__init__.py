"""Whole-program analysis pass (``sbgp-lint --program``).

Complements the per-file rules with three project-wide invariants that
no single file can witness, all riding ONE shared :class:`ProgramIndex`
built from the per-file linter's already-parsed ASTs:

* **RPR015** — import-graph layering contract: eager intra-project
  imports must respect the layer order declared in
  ``[tool.repro.layers]`` (pyproject.toml), and the eager module graph
  must stay acyclic (:mod:`repro.analysis.program.layers`);
* **RPR016** — fork/thread-safety: no lock-free writes to module-level
  mutable state in functions reachable from pool ``.map`` targets or
  worker threads (:mod:`repro.analysis.program.forksafety`);
* **RPR017** — dead public API: every public top-level symbol must be
  referenced somewhere in src/tests/scripts/benchmarks/examples
  (:mod:`repro.analysis.program.api`).

Findings plug into the ordinary waiver machinery: a
``# repro-lint: disable=RPR015`` on the anchored line suppresses the
finding and is tracked, so stale program-level waivers still surface as
RPR010 once the violation is gone.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.base import FileContext
from repro.analysis.findings import Finding
from repro.analysis.program.api import check_dead_api, collect_surface
from repro.analysis.program.forksafety import check_fork_safety
from repro.analysis.program.index import ProgramIndex
from repro.analysis.program.layers import (
    LayerManifest,
    check_layers,
    find_manifest,
    render_dot,
)

__all__ = [
    "PROGRAM_RULES",
    "ProgramRule",
    "ProgramSummary",
    "ProgramIndex",
    "LayerManifest",
    "run_program_pass",
    "collect_surface",
    "find_manifest",
    "render_dot",
    "program_codes",
]


@dataclasses.dataclass(frozen=True)
class ProgramRule:
    """Catalogue entry for one program-level rule (mirrors ``Rule``)."""

    code: str
    name: str
    rationale: str


PROGRAM_RULES: tuple[ProgramRule, ...] = (
    ProgramRule(
        code="RPR015",
        name="layering-contract",
        rationale=(
            "The architecture is a layered DAG declared in [tool.repro.layers]; "
            "an eager upward import or module cycle silently erodes the layering "
            "that keeps kernels below policy below service, and breaks in "
            "import-order-dependent ways only at a distance."
        ),
    ),
    ProgramRule(
        code="RPR016",
        name="fork-thread-safety",
        rationale=(
            "Functions reachable from pool .map targets and scheduler "
            "worker threads run concurrently across forks and threads; a "
            "lock-free write to module-level mutable state there is a lost "
            "update or cross-fork divergence waiting for load."
        ),
    ),
    ProgramRule(
        code="RPR017",
        name="dead-public-api",
        rationale=(
            "Public API that nothing references is untested, unmaintained "
            "surface that still constrains every refactor; the companion "
            "scripts/api_surface.py ratchet makes *intentional* surface change "
            "an explicit, reviewed diff."
        ),
    ),
)


def program_codes() -> frozenset[str]:
    return frozenset(rule.code for rule in PROGRAM_RULES)


@dataclasses.dataclass(frozen=True)
class ProgramSummary:
    """Machine-readable account of what the program pass saw."""

    modules: int
    packages: int
    edges_eager: int
    edges_lazy: int
    edges_typing: int
    entrypoints: int
    reachable_functions: int
    public_symbols: int
    manifest_source: str | None

    def to_json(self) -> dict[str, object]:
        return {
            "modules": self.modules,
            "packages": self.packages,
            "edges": {
                "eager": self.edges_eager,
                "lazy": self.edges_lazy,
                "typing": self.edges_typing,
            },
            "entrypoints": self.entrypoints,
            "reachable_functions": self.reachable_functions,
            "public_symbols": self.public_symbols,
            "manifest": self.manifest_source,
        }


def _parse_reference_files(roots: Sequence[str | Path]) -> list[tuple[str, str | None, ast.AST]]:
    from repro.analysis.engine import iter_python_files, module_for_path

    out: list[tuple[str, str | None, ast.AST]] = []
    for path in iter_python_files(roots):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except (SyntaxError, ValueError):
            continue  # the reference universe is best-effort
        out.append((str(path), module_for_path(path), tree))
    return out


def default_reference_roots(paths: Sequence[str | Path]) -> list[Path]:
    """tests/ and examples/ siblings of a linted ``src`` root, if present.

    The acceptance command is ``sbgp-lint --program src scripts
    benchmarks`` — tests and examples are not *linted*, but a public
    symbol they exercise is not dead, so they join the use universe
    automatically.
    """
    out: list[Path] = []
    for raw in paths:
        path = Path(raw).resolve()
        if path.name == "src" and path.is_dir():
            for sibling in ("tests", "examples"):
                cand = path.parent / sibling
                if cand.is_dir():
                    out.append(cand)
    return out


def run_program_pass(
    contexts: Iterable[tuple[FileContext, ast.AST]],
    paths: Sequence[str | Path],
    selected: frozenset[str] | None = None,
    reference_roots: Sequence[str | Path] | None = None,
    manifest: LayerManifest | None = None,
) -> tuple[list[Finding], ProgramSummary, ProgramIndex]:
    """Run RPR015/016/017 over already-parsed files.

    ``contexts`` pairs each linted file's :class:`FileContext` (carrying
    its suppression table) with its parsed tree; findings anchored on a
    waived line are suppressed and the waiver marked used, exactly like
    per-file rules.
    """
    ctx_by_path = {ctx.path: ctx for ctx, _tree in contexts}
    parsed = [(ctx.path, ctx.module, tree) for ctx, tree in contexts]

    roots = list(reference_roots or []) + default_reference_roots(paths)
    index = ProgramIndex.build(parsed, _parse_reference_files(roots))

    if manifest is None:
        manifest = find_manifest(paths)

    active = program_codes() if selected is None else (program_codes() & selected)
    rules_by_code = {rule.code: rule for rule in PROGRAM_RULES}
    findings: list[Finding] = []

    def report(code: str, path: str, line: int, col: int, message: str) -> None:
        ctx = ctx_by_path.get(path)
        if ctx is not None and ctx.suppressions.is_suppressed(line, code):
            return
        findings.append(
            Finding(
                path=path,
                line=line,
                col=col,
                code=code,
                message=message,
                rule=rules_by_code[code].name,
            )
        )

    if "RPR015" in active and manifest is not None:
        for violation in check_layers(index, manifest):
            report("RPR015", violation.path, violation.line, violation.col, violation.message)

    entry_count = reachable_count = 0
    if "RPR016" in active:
        fork_violations, entry_count, reachable_count = check_fork_safety(index)
        for violation in fork_violations:
            report("RPR016", violation.path, violation.line, violation.col, violation.message)

    symbol_count = 0
    if "RPR017" in active:
        dead, symbol_count = check_dead_api(index)
        for violation in dead:
            report("RPR017", violation.path, violation.line, violation.col, violation.message)

    packages = {manifest.package_of(m) or m.split(".")[0] for m in index.modules} if manifest else {
        m.split(".")[0] for m in index.modules
    }
    counts = index.edge_counts()
    summary = ProgramSummary(
        modules=len(index.modules),
        packages=len(packages),
        edges_eager=counts["eager"],
        edges_lazy=counts["lazy"],
        edges_typing=counts["typing"],
        entrypoints=entry_count,
        reachable_functions=reachable_count,
        public_symbols=symbol_count,
        manifest_source=manifest.source if manifest else None,
    )
    return findings, summary, index
