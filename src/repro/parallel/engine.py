"""The three names ``perf/layers.py`` imports, kept until its probes go.

Per-destination work (the paper's DryadLINQ map, App. C.3) runs batched
in compiled kernels in one process, so there is no process engine.  This
module is only an import surface for ``perf/``: ROADMAP item 1 removes
the ``parallel.*`` probes, and this module with them.  Every
``workers`` argument is accepted and ignored.
"""

from __future__ import annotations


class SerialEngine:
    """Maps a function over items in this process, preserving order."""

    def map(self, fn, items) -> list:
        return [fn(item) for item in items]


def default_engine(workers: int = 1) -> SerialEngine:
    """A :class:`SerialEngine`, whatever ``workers`` says."""
    return SerialEngine()


def parallel_warm_cache(cache, workers: int = 1) -> None:
    """:meth:`~repro.routing.cache.RoutingCache.warm`, in this process."""
    cache.warm()


def parallel_project_flips(
    cache, deriver, rd, jobs, model, projection, workers: int = 1
) -> list:
    """:func:`~repro.core.projection.project_flips` on ``jobs``."""
    from repro.core.projection import project_flips

    return project_flips(cache, deriver, rd, list(jobs), model, projection)
