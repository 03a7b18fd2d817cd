"""Lint a source string the way ``sbgp-lint`` lints a file on disk."""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis import Finding, Rule, lint_paths


def lint_text(
    source: str,
    module: str | None = None,
    path: str = "fixture.py",
    rules: list[Rule] | None = None,
) -> list[Finding]:
    """Findings of ``source`` written to a scratch file and linted.

    ``module`` places the file where that module identity derives from
    its path (``repro/service/daemon.py``), so package-scoped rules see
    it; otherwise the file sits at ``path``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp, *module.split(".")).with_suffix(".py") if module else Path(tmp, path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        return list(lint_paths([target], rules=rules).findings)
