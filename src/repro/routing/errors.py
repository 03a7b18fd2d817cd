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
