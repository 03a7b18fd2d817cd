"""Traffic-weight model (Section 3.1).

Each AS ``n`` has a weight ``w_n`` modelling the volume of traffic it
originates.  Stubs and ISPs have unit weight; the five content providers
together originate an ``x`` fraction of all Internet traffic, split
equally:

    ``5 * w_CP = x * (N_other + 5 * w_CP)``
    ``=> w_CP = x * N_other / (5 * (1 - x))``

The paper reports ``w_CP = 821`` for ``x = 10%`` on the 36,964-AS graph,
which this formula reproduces (a unit test pins that number).
"""

from __future__ import annotations

from repro.topology.graph import ASGraph


def content_provider_weight(num_other_ases: int, x: float, num_cps: int = 5) -> float:
    """Weight each CP needs so that CPs originate an ``x`` traffic fraction.

    Parameters
    ----------
    num_other_ases:
        Number of non-CP ASes (each with unit weight).
    x:
        Fraction of total traffic originated by the CPs combined,
        ``0 <= x < 1``.
    num_cps:
        Number of content providers sharing the ``x`` fraction.
    """
    if not 0 <= x < 1:
        raise ValueError(f"x must be in [0, 1), got {x}")
    if num_cps <= 0:
        raise ValueError(f"num_cps must be positive, got {num_cps}")
    if x == 0:
        return 1.0
    return x * num_other_ases / (num_cps * (1 - x))


def apply_traffic_model(graph: ASGraph, x: float) -> float:
    """Assign weights: unit for stubs/ISPs, ``w_CP`` for content providers.

    Returns the CP weight that was applied.  ``x`` is the combined
    traffic fraction of the graph's content providers.
    """
    cps = graph.cp_indices
    if not cps:
        if x > 0:
            raise ValueError("graph has no content providers but x > 0")
        return 1.0
    w_cp = content_provider_weight(graph.n - len(cps), x, num_cps=len(cps))
    weights = graph.weights
    weights[:] = 1.0
    for i in cps:
        weights[i] = w_cp
    return w_cp

