"""Exceptions raised by the topology subpackage."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.runtime.errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.topology.preflight import PreflightIssue

#: recognised as-rel preflight modes: ``strict`` raises
#: :class:`GraphValidationError` on any issue, ``repair`` quarantines
#: and fixes, ``report`` repairs and warns.  Defined here, numpy-free,
#: so the CLI's parser can offer them without loading the graph stack.
PREFLIGHT_MODES: tuple[str, ...] = ("strict", "repair", "report")


class TopologyError(Exception):
    """Base class for all topology errors."""


class UnknownASError(TopologyError, KeyError):
    """An operation referenced an AS number that is not in the graph."""

    def __init__(self, asn: int):
        super().__init__(f"AS {asn} is not in the graph")
        self.asn = asn


class DuplicateASError(TopologyError, ValueError):
    """An AS number was added to the graph twice."""

    def __init__(self, asn: int):
        super().__init__(f"AS {asn} is already in the graph")
        self.asn = asn


class DuplicateEdgeError(TopologyError, ValueError):
    """An edge between two ASes was declared twice."""

    def __init__(self, a: int, b: int):
        super().__init__(f"edge between AS {a} and AS {b} already exists")
        self.endpoints = (a, b)


class RelationshipCycleError(TopologyError, ValueError):
    """The customer-provider hierarchy contains a cycle (violates GR1)."""

    def __init__(self, cycle: list[int]):
        path = " -> ".join(str(asn) for asn in cycle)
        super().__init__(f"customer-provider cycle: {path}")
        self.cycle = cycle


class GraphFormatError(TopologyError, SchemaError):
    """A serialized graph file could not be parsed.

    Messages name the source and line (``<file>:<line>: ...``) so a bad
    snapshot is pin-pointable without re-running under a debugger.
    Subclasses :class:`~repro.runtime.errors.SchemaError` (itself a
    :class:`ValueError`): malformed input data is the same failure class
    whether it arrives as a journal or an as-rel file, and pre-existing
    ``except ValueError`` callers keep working.
    """


class GraphValidationError(TopologyError, ValueError):
    """An as-rel source failed preflight validation in ``strict`` mode.

    Carries the individual :class:`~repro.topology.preflight.
    PreflightIssue` findings (each with its line number) so callers can
    render a quarantine report instead of fixing one issue per rerun.
    """

    def __init__(self, origin: str, issues: Sequence["PreflightIssue"]):
        self.origin = origin
        self.issues = tuple(issues)
        lines = "; ".join(
            f"line {i.lineno}: {i.message}" for i in self.issues[:5]
        )
        more = len(self.issues) - 5
        if more > 0:
            lines += f"; ... and {more} more"
        super().__init__(
            f"{origin}: {len(self.issues)} validation issue(s): {lines}"
        )
