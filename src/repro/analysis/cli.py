"""``sbgp-lint`` / ``python -m repro.analysis`` command line.

Exit codes (CI contract): 0 clean, 1 findings, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from repro.analysis.engine import LintResult, lint_paths
from repro.analysis.findings import JSON_FORMAT
from repro.analysis.program import PROGRAM_RULES, program_codes
from repro.analysis.rules import ALL_RULES, get_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbgp-lint",
        description=(
            "AST linter for repro project invariants (atomic writes, seeded "
            "RNG, cache/registry encapsulation, ...)"
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--program",
        action="store_true",
        help=(
            "also run the whole-program pass: RPR015 layering contract, "
            "RPR016 fork/thread safety, RPR017 dead public API"
        ),
    )
    parser.add_argument(
        "--graph-out",
        metavar="DOT",
        help="write the package import graph as Graphviz DOT (implies --program)",
    )
    parser.add_argument(
        "--uses",
        metavar="PATH",
        action="append",
        help=(
            "extra root whose references count as API use for RPR017 but "
            "which is not itself linted (repeatable; a linted src/ root "
            "auto-adds sibling examples/ and perf/)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue (code, name, rationale) and exit",
    )
    return parser


def _parse_codes(raw: str | None) -> frozenset[str] | None:
    if raw is None:
        return None
    return frozenset(code.strip().upper() for code in raw.split(",") if code.strip())


def _print_rule_catalogue(out: list[str]) -> None:
    for rule in ALL_RULES:
        out.append(f"{rule.code} {rule.name}")
        out.append(f"    {rule.rationale}")
    for prog_rule in PROGRAM_RULES:
        out.append(f"{prog_rule.code} {prog_rule.name} (--program)")
        out.append(f"    {prog_rule.rationale}")


def render_text(result: LintResult) -> str:
    lines = [f.format_text() for f in result.findings]
    counts = Counter(f.code for f in result.findings)
    if result.findings:
        by_code = ", ".join(f"{code}: {n}" for code, n in sorted(counts.items()))
        lines.append(
            f"{len(result.findings)} finding(s) in "
            f"{len({f.path for f in result.findings})} file(s) "
            f"({result.files_checked} checked) — {by_code}"
        )
    else:
        lines.append(f"clean: 0 findings ({result.files_checked} files checked)")
    if result.program is not None:
        p = result.program
        lines.append(
            f"program: {p.modules} modules / {p.packages} packages, "
            f"{p.edges_eager} eager + {p.edges_lazy} lazy + {p.edges_typing} typing "
            f"import edges, {p.reachable_functions} functions reachable from "
            f"{p.entrypoints} fork/thread entry points, {p.public_symbols} public symbols"
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload: dict[str, object] = {
        "format": JSON_FORMAT,
        "files_checked": result.files_checked,
        "findings": [f.to_json() for f in result.findings],
        "counts": dict(sorted(Counter(f.code for f in result.findings).items())),
    }
    if result.program is not None:
        payload["program"] = result.program.to_json()
    return json.dumps(payload, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        lines: list[str] = []
        _print_rule_catalogue(lines)
        print("\n".join(lines))
        return 0
    if not args.paths:
        parser.error("no paths given (or use --list-rules)")

    select = _parse_codes(args.select)
    ignore = _parse_codes(args.ignore)
    prog_codes = program_codes()

    # Selecting a program code implies --program, as does --graph-out.
    run_program = bool(args.program or args.graph_out or (select and select & prog_codes))
    program_select: frozenset[str] | None = None
    if run_program:
        program_select = prog_codes if select is None else (select & prog_codes)
        if ignore:
            program_select -= ignore

    try:
        file_select = None if select is None else (select - prog_codes)
        if file_select is not None and not file_select:
            rules = []  # only program codes selected: no per-file rules
        else:
            rules = get_rules(select=file_select, ignore=ignore)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        result = lint_paths(
            args.paths,
            rules=rules,
            program=run_program,
            program_select=program_select,
            reference_roots=None if args.uses is None else [Path(p) for p in args.uses],
            graph_out=args.graph_out,
        )
    except FileNotFoundError as exc:
        print(f"sbgp-lint: error: {exc}", file=sys.stderr)
        return 2

    print(render_text(result) if args.format == "text" else render_json(result))
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
