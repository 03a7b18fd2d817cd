"""Dead public API detection (RPR017) and the API-surface snapshot.

**Dead API.**  A top-level public symbol (no leading underscore) of a
project module is *dead* when its name is referenced nowhere else in
the program — not imported, not attribute-accessed, not mentioned as a
bare name — across the linted tree **plus** the reference-only roots
(examples/, perf/) that call the library without being linted
themselves.  tests/ is not a caller: a symbol only tests use is surface
the program does not need, so it is reported like any other.
Same-file references count (a base class of exported subclasses, an
annotation the module itself uses) because definitions register as
*stores*, never as uses — a symbol nothing loads anywhere stays dead.  One reference shape deliberately does NOT count as use:
pure re-export imports in ``__init__.py`` files of the symbol's own
package tree (a package that exports a name nobody consumes is exactly
the drift this rule exists to catch).

Matching is by *name*, not by object identity: a dead symbol whose name
collides with any used identifier anywhere (``stats``, ``main``, …) is
not reported.  That keeps the rule conservative — zero false positives
at the price of missed shadowed deaths — which is the right trade for a
blocking CI gate.

**Surface snapshot.**  :func:`collect_surface` renders the same symbol
table into a stable JSON shape (``repro.api-surface/1``):
``module -> symbol -> signature`` with class entries carrying bases and
public-method signatures.  ``scripts/api_surface.py`` ratchets the
committed snapshot: any drift (add/remove/change) fails until the
baseline is regenerated with ``--update``.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.program.index import FileIndex, ProgramIndex, SymbolInfo

#: JSON format marker for the committed surface snapshot.
SURFACE_FORMAT = "repro.api-surface/1"


@dataclasses.dataclass(frozen=True)
class DeadApiViolation:
    """One RPR017 site (anchored at the symbol definition)."""

    path: str
    line: int
    col: int
    message: str


def _top_package(module: str) -> str:
    parts = module.split(".")
    return ".".join(parts[:2]) if len(parts) > 1 else module


def _reference_names(fi: FileIndex, symbol: SymbolInfo) -> set[str]:
    """Identifiers in ``fi`` that count as uses of foreign symbols.

    For ``__init__`` files inside the symbol's own package tree, names
    that appear *only* as from-import targets are re-exports, not uses.
    """
    if fi.module is not None and fi.is_init:
        sym_pkg = _top_package(symbol.module)
        if fi.module == sym_pkg or fi.module.startswith(sym_pkg + ".") or sym_pkg.startswith(fi.module + "."):
            # ``fi.uses`` holds only loads beyond the import statements
            # themselves, so a name that is merely re-imported (even
            # into ``__all__``, a plain string list) does not count —
            # but one the __init__ actually calls or annotates does.
            return fi.uses
    return fi.uses | set(fi.import_refs)


def check_dead_api(index: ProgramIndex) -> tuple[list[DeadApiViolation], int]:
    """RPR017 findings plus the public-symbol count examined."""
    symbols = index.public_symbols()
    out: list[DeadApiViolation] = []
    all_files = list(index.files.values()) + list(index.extra_uses)
    for sym in symbols:
        if sym.name == "main":  # console entry points are wired via pyproject
            continue
        used = False
        for fi in all_files:
            if sym.name in _reference_names(fi, sym):
                used = True
                break
        if not used:
            out.append(
                DeadApiViolation(
                    path=sym.path,
                    line=sym.line,
                    col=sym.col,
                    message=(
                        f"public {sym.kind} `{sym.module}.{sym.name}` is referenced "
                        "nowhere in src/scripts/benchmarks/examples/perf (tests do not "
                        "count); delete it, underscore it, or waive with the reason it "
                        "must stay public"
                    ),
                )
            )
    return out, len(symbols)


# -- surface snapshot --------------------------------------------------


def collect_surface(index: ProgramIndex) -> dict[str, dict[str, object]]:
    """``module -> symbol -> signature`` for every public top-level symbol."""
    surface: dict[str, dict[str, object]] = {}
    for module, fi in sorted(index.modules.items()):
        entries: dict[str, object] = {}
        for name, sym in sorted(fi.symbols.items()):
            if not sym.public:
                continue
            if sym.kind == "class":
                _bases, methods = fi.classes.get(name, ((), {}))
                entries[name] = {
                    "kind": "class",
                    "signature": sym.signature,
                    "methods": {
                        m: f.signature
                        for m, f in sorted(methods.items())
                        if not m.startswith("_") or m == "__init__"
                    },
                }
            else:
                entries[name] = {"kind": sym.kind, "signature": sym.signature}
        if entries:
            surface[module] = entries
    return surface
