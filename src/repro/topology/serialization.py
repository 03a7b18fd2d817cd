"""Reading and writing AS graphs in the CAIDA ``as-rel`` format.

The paper's empirical substrate (Cyclops + IXP edges) is distributed in
the standard ``as-rel`` line format::

    # comment lines start with '#'
    <as-a>|<as-b>|-1      # a is a provider of b
    <as-a>|<as-b>|0       # a and b are peers

This module reads and writes that format so real CAIDA / Cyclops
snapshots can be dropped in for the synthetic generator.  Content
providers are not part of the format, so they are passed separately (or
embedded in a ``# cp: <asn>`` comment extension that :func:`load_as_rel`
understands).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, TextIO

from repro.runtime.atomic import atomic_write_text
from repro.topology.errors import GraphFormatError
from repro.topology.graph import ASGraph
from repro.topology.relationships import (
    CAIDA_PEER_TO_PEER,
    CAIDA_PROVIDER_TO_CUSTOMER,
    Relationship,
)


def source_origin(source: str | Path | TextIO) -> str:
    """Human-readable name of an as-rel source (for error messages)."""
    if isinstance(source, (str, Path)):
        return str(source)
    return str(getattr(source, "name", "<stream>"))


def load_as_rel(source: str | Path | TextIO, cp_asns: Iterable[int] = ()) -> ASGraph:
    """Load an AS graph from an ``as-rel`` file, path, or file object.

    ``# cp: <asn>`` comment lines mark content providers; explicit
    ``cp_asns`` are unioned with any found in the file.

    Parse errors raise :class:`~repro.topology.errors.GraphFormatError`
    naming the source and line (``<file>:<line>: ...``).  Full
    validation (duplicate/conflicting edges, self-loops, provider
    cycles, disconnected components) is
    :func:`repro.topology.preflight.preflight_as_rel`.
    """
    close = False
    if isinstance(source, (str, Path)):
        fh: TextIO = open(source, "r", encoding="utf-8")
        close = True
    else:
        fh = source
    try:
        return _parse(fh, set(cp_asns), origin=source_origin(source))
    finally:
        if close:
            fh.close()


def loads_as_rel(text: str, cp_asns: Iterable[int] = ()) -> ASGraph:
    """Load an AS graph from an ``as-rel`` string."""
    return load_as_rel(io.StringIO(text), cp_asns)


def _parse(fh: TextIO, cps: set[int], origin: str = "<stream>") -> ASGraph:
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("cp:"):
                try:
                    cps.add(int(body[3:].strip()))
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{origin}:{lineno}: bad cp marker {line!r}"
                    ) from exc
            continue
        parts = line.split("|")
        if len(parts) < 3:
            raise GraphFormatError(
                f"{origin}:{lineno}: expected a|b|rel, got {line!r}"
            )
        try:
            a, b, rel = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise GraphFormatError(
                f"{origin}:{lineno}: non-integer field in {line!r}"
            ) from exc
        if rel not in (CAIDA_PROVIDER_TO_CUSTOMER, CAIDA_PEER_TO_PEER):
            raise GraphFormatError(
                f"{origin}:{lineno}: unknown relationship {rel}"
            )
        edges.append((a, b, rel))

    graph = ASGraph(cp_asns=cps)
    for a, b, rel in edges:
        graph.ensure_as(a)
        graph.ensure_as(b)
        if rel == CAIDA_PROVIDER_TO_CUSTOMER:
            graph.add_customer_provider(provider=a, customer=b)
        else:
            graph.add_peering(a, b)
    for asn in cps:
        graph.ensure_as(asn)
    return graph


def dump_as_rel(graph: ASGraph, target: str | Path | TextIO) -> None:
    """Write an AS graph in ``as-rel`` format (with ``# cp:`` markers).

    Path targets are written atomically (temp + fsync + replace): a
    crash mid-dump leaves the previous snapshot intact, never a torn
    half-graph that would parse as a smaller topology.
    """
    if isinstance(target, (str, Path)):
        atomic_write_text(target, dumps_as_rel(graph))
    else:
        target.write(dumps_as_rel(graph))


def dumps_as_rel(graph: ASGraph) -> str:
    """Serialize an AS graph to an ``as-rel`` string."""
    buf = io.StringIO()
    buf.write("# as-rel written by repro.topology.serialization\n")
    for asn in sorted(graph.cp_asns):
        buf.write(f"# cp: {asn}\n")
    for a, b, rel in graph.edges():
        code = CAIDA_PROVIDER_TO_CUSTOMER if rel is Relationship.CUSTOMER else CAIDA_PEER_TO_PEER
        buf.write(f"{a}|{b}|{code}\n")
    return buf.getvalue()
