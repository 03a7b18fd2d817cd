"""Exceptions of the routing package."""

from __future__ import annotations


class BackendUnavailable(RuntimeError):
    """A registered kernel backend cannot be imported or compiled.

    Raised by :func:`repro.routing.backends.load_backend` when a
    backend's toolchain is missing (no C compiler) or its compilation
    fails.  Registry callers rarely see it: resolution
    degrades to the numpy backend (a counted ladder rung) instead of
    propagating, so only a direct ``load_backend`` call — or numpy
    itself failing — surfaces the error.
    """


class RouteTooLongError(ValueError):
    """A selected route takes more hops than the routing arena can hold.

    The arena stores path lengths as int8, so no route may be longer
    than :data:`repro.routing.tree.MAX_ROUTE_LENGTH` (127) hops; the
    paper's routes take 2-5.  Every structure builder raises this
    before it would store such a length, instead of letting it wrap.
    """
