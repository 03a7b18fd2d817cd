"""Input preflight for real ``as-rel`` snapshots (quarantine-and-repair).

Real CAIDA / Cyclops snapshots are scraped artifacts: they contain
malformed lines, duplicate and mutually contradictory edge
declarations, self-loops, and occasionally customer-provider cycles
that violate GR1.  The strict parser in
:mod:`repro.topology.serialization` stops at the first malformed line;
this module instead validates the *whole* file in one pass and hands
back a structured report, so one run surfaces every problem.

Three modes:

``strict``
    Any issue raises :class:`~repro.topology.errors.GraphValidationError`
    carrying every finding (with line numbers) — for pipelines where a
    dirty snapshot must never reach a figure.
``repair``
    Issues are quarantined (malformed lines and bad edges dropped,
    keep-first on duplicates/conflicts, provider cycles broken by
    removing the closing edge) and a repaired graph is returned along
    with the report.
``report``
    Like ``repair`` but each issue is also logged as a WARNING — for
    interactive use where you want the graph *and* the noise.
"""

from __future__ import annotations

import dataclasses
import io
import logging
from collections import deque
from pathlib import Path
from typing import Iterable, TextIO

from repro.telemetry.metrics import get_registry
from repro.topology.errors import PREFLIGHT_MODES, GraphValidationError
from repro.topology.graph import ASGraph
from repro.topology.relationships import (
    CAIDA_PEER_TO_PEER,
    CAIDA_PROVIDER_TO_CUSTOMER,
)
from repro.topology.serialization import source_origin

log = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class PreflightIssue:
    """One finding from as-rel validation.

    ``lineno`` is the 1-based source line (0 for whole-graph findings
    like disconnected components); ``code`` is a stable machine-readable
    category; ``line`` is the offending raw text (empty for
    whole-graph findings).
    """

    lineno: int
    code: str
    message: str
    line: str = ""

    def format(self) -> str:
        """``<line>: [<code>] <message>`` (quarantine-report row)."""
        where = f"line {self.lineno}" if self.lineno else "graph"
        return f"{where}: [{self.code}] {self.message}"


@dataclasses.dataclass(frozen=True)
class PreflightReport:
    """Outcome of one :func:`preflight_as_rel` run."""

    origin: str
    mode: str
    issues: tuple[PreflightIssue, ...]
    dropped_edges: int
    num_ases: int
    num_edges: int
    num_components: int

    @property
    def ok(self) -> bool:
        """True when the source validated with no findings."""
        return not self.issues

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form (for ``--report-out``)."""
        return {
            "origin": self.origin,
            "mode": self.mode,
            "ok": self.ok,
            "num_issues": len(self.issues),
            "dropped_edges": self.dropped_edges,
            "num_ases": self.num_ases,
            "num_edges": self.num_edges,
            "num_components": self.num_components,
            "issues": [dataclasses.asdict(i) for i in self.issues],
        }

    def format_text(self) -> str:
        """Human-readable quarantine report."""
        head = (
            f"preflight {self.origin}: "
            f"{len(self.issues)} issue(s), {self.dropped_edges} edge(s) "
            f"quarantined; kept {self.num_ases} ASes / {self.num_edges} "
            f"edges in {self.num_components} component(s)"
        )
        if self.ok:
            return head
        return "\n".join([head] + [f"  {i.format()}" for i in self.issues])


def preflight_as_rel(
    source: str | Path | TextIO,
    cp_asns: Iterable[int] = (),
    mode: str = "report",
) -> tuple[ASGraph, PreflightReport]:
    """Validate (and, per ``mode``, repair) an as-rel source.

    Returns the graph built from the surviving lines plus the full
    :class:`PreflightReport`.  ``strict`` mode raises
    :class:`~repro.topology.errors.GraphValidationError` instead of
    returning when any issue is found.
    """
    if mode not in PREFLIGHT_MODES:
        raise ValueError(
            f"unknown preflight mode {mode!r}; expected one of {PREFLIGHT_MODES}"
        )
    origin = source_origin(source)
    close = False
    if isinstance(source, (str, Path)):
        fh: TextIO = open(source, "r", encoding="utf-8")
        close = True
    else:
        fh = source
    try:
        graph, report = _preflight(fh, set(cp_asns), origin, mode)
    finally:
        if close:
            fh.close()
    get_registry().counter("topology.preflight.issues").inc(len(report.issues))
    if mode == "strict" and not report.ok:
        raise GraphValidationError(origin, report.issues)
    if mode == "report":
        for issue in report.issues:
            log.warning("preflight %s: %s", origin, issue.format())
    return graph, report


def preflight_as_rel_text(
    text: str, cp_asns: Iterable[int] = (), mode: str = "report"
) -> tuple[ASGraph, PreflightReport]:
    """String-input convenience wrapper around :func:`preflight_as_rel`."""
    return preflight_as_rel(io.StringIO(text), cp_asns, mode=mode)


def _preflight(
    fh: TextIO, cps: set[int], origin: str, mode: str
) -> tuple[ASGraph, PreflightReport]:
    issues: list[PreflightIssue] = []
    dropped = 0
    # surviving edges as (a, b, rel); peers normalised to (min, max) so
    # a re-declaration in the other direction reads as a duplicate, not
    # a conflict
    kept: list[tuple[int, int, int]] = []
    seen: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    edge_lineno: dict[tuple[int, int], int] = {}

    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("cp:"):
                try:
                    cps.add(int(body[3:].strip()))
                except ValueError:
                    issues.append(PreflightIssue(
                        lineno, "malformed", f"bad cp marker {line!r}", line,
                    ))
            continue
        parts = line.split("|")
        if len(parts) < 3:
            issues.append(PreflightIssue(
                lineno, "malformed", f"expected a|b|rel, got {line!r}", line,
            ))
            dropped += 1
            continue
        try:
            a, b, rel = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            issues.append(PreflightIssue(
                lineno, "malformed", f"non-integer field in {line!r}", line,
            ))
            dropped += 1
            continue
        if rel not in (CAIDA_PROVIDER_TO_CUSTOMER, CAIDA_PEER_TO_PEER):
            issues.append(PreflightIssue(
                lineno, "malformed", f"unknown relationship {rel}", line,
            ))
            dropped += 1
            continue
        if a == b:
            issues.append(PreflightIssue(
                lineno, "self_loop", f"AS {a} declares an edge to itself", line,
            ))
            dropped += 1
            continue
        if rel == CAIDA_PEER_TO_PEER and a > b:
            a, b = b, a
        key = (min(a, b), max(a, b))
        prior = seen.get(key)
        if prior is not None:
            pa, pb, prel, plineno = prior
            if (pa, pb, prel) == (a, b, rel):
                issues.append(PreflightIssue(
                    lineno, "duplicate_edge",
                    f"edge {a}|{b}|{rel} already declared on line {plineno}",
                    line,
                ))
            else:
                issues.append(PreflightIssue(
                    lineno, "conflicting_edge",
                    f"edge between AS {key[0]} and AS {key[1]} was declared "
                    f"as {pa}|{pb}|{prel} on line {plineno}; keeping the "
                    "first declaration",
                    line,
                ))
            dropped += 1
            continue
        seen[key] = (a, b, rel, lineno)
        edge_lineno[key] = lineno
        kept.append((a, b, rel))

    graph = ASGraph(cp_asns=cps)
    for a, b, rel in kept:
        graph.ensure_as(a)
        graph.ensure_as(b)
        if rel == CAIDA_PROVIDER_TO_CUSTOMER:
            graph.add_customer_provider(provider=a, customer=b)
        else:
            graph.add_peering(a, b)
    for asn in cps:
        graph.ensure_as(asn)

    dropped += _break_provider_cycles(graph, edge_lineno, issues)
    components = _count_components(graph)
    if components > 1:
        issues.append(PreflightIssue(
            0, "disconnected",
            f"graph splits into {components} connected components; "
            "routing trees never cross components, so utilities are "
            "computed per-island",
        ))
    report = PreflightReport(
        origin=origin,
        mode=mode,
        issues=tuple(issues),
        dropped_edges=dropped,
        num_ases=graph.n,
        num_edges=graph.num_customer_provider_edges() + graph.num_peering_edges(),
        num_components=components,
    )
    return graph, report


def _break_provider_cycles(
    graph: ASGraph,
    edge_lineno: dict[tuple[int, int], int],
    issues: list[PreflightIssue],
) -> int:
    """Drop the closing edge of each GR1 cycle until the graph is acyclic.

    Returns the number of edges removed.  One depth-first search names
    the cycles (:meth:`ASGraph.provider_cycles`), resuming after each
    drop; the offending edge's source line is pulled from
    ``edge_lineno`` for the report.
    """
    removed = 0
    for cycle in graph.provider_cycles():
        a, b = cycle[-2], cycle[-1]
        key = (min(a, b), max(a, b))
        graph.remove_edge(a, b)
        removed += 1
        path = " -> ".join(str(asn) for asn in cycle)
        issues.append(PreflightIssue(
            edge_lineno.get(key, 0), "provider_cycle",
            f"customer-provider cycle {path}; dropped the closing edge "
            f"{a}|{b}",
        ))
    return removed


def _count_components(graph: ASGraph) -> int:
    """Number of connected components (edges taken as undirected)."""
    n = graph.n
    if n == 0:
        return 0
    visited = [False] * n
    components = 0
    for start in range(n):
        if visited[start]:
            continue
        components += 1
        visited[start] = True
        queue = deque([start])
        while queue:
            node = queue.popleft()
            neighbours = (
                graph.customers[node] + graph.providers[node] + graph.peers[node]
            )
            for nxt in neighbours:
                if not visited[nxt]:
                    visited[nxt] = True
                    queue.append(nxt)
    return components
