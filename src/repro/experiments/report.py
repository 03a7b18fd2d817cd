"""Plain-text table rendering for experiment output.

The benchmark harness regenerates the paper's tables and figure series
as aligned text so that runs are comparable to the paper at a glance
(EXPERIMENTS.md records paper-vs-measured for each).  File output goes
through :func:`write_report`, which writes atomically — there is no
direct-truncate write path left in the reporting layer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.runtime.atomic import atomic_write_text


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell != 0 and abs(cell) < 0.01:
            return f"{cell:.4f}"
        return f"{cell:.3f}".rstrip("0").rstrip(".") if cell % 1 else f"{cell:.0f}"
    return str(cell)


def format_series(label: str, values: Sequence[float], fmt: str = "{:.3g}") -> str:
    """One-line labelled series, e.g. for per-round counts."""
    return f"{label}: " + " ".join(fmt.format(v) for v in values)


def write_report(path: str | Path, text: str) -> None:
    """Write rendered report text to ``path`` atomically.

    A trailing newline is ensured; an interrupt mid-write leaves any
    previous report intact rather than a truncated one.
    """
    if not text.endswith("\n"):
        text += "\n"
    atomic_write_text(path, text)
