"""Local utility forecasting — "shadow configurations" (§8.2).

The paper's projections assume global information.  In practice an ISP
would estimate: "an ISP might set up a router that listens to S*BGP
messages from neighboring ASes, and then use these messages to predict
how becoming secure might impact its neighbors' route selections.  A
more sophisticated mechanism could use extended 'shadow configurations'
with neighboring ASes to gain visibility into how traffic flows might
change."

:func:`local_project_flip` implements that estimator: the flip's
security consequences are propagated only ``horizon`` hops up the
tiebreak-dependency graph (horizon 1 = the ISP's own neighbors re-
decide, nobody further; larger horizons = deeper shadow cooperation),
and the resulting traffic delta is evaluated on the otherwise-frozen
routing trees.  The gap to the exact projection is the estimation error
the paper says to fold into theta ("if projected utility is off by a
factor of ±eps, model this with threshold theta ± eps");
:func:`forecast_error_study` measures that eps distribution.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import UtilityModel
from repro.core.engine import RoundData
from repro.core.projection import _incremental_delta, project_flips
from repro.core.state import StateDeriver
from repro.routing.cache import RoutingCache
from repro.routing.policy import RouteClass


@dataclasses.dataclass(frozen=True)
class LocalForecast:
    """A locally-estimated projection and its exact counterpart."""

    isp: int
    horizon: int
    estimated_utility: float
    exact_utility: float
    current_utility: float

    @property
    def error(self) -> float:
        """Relative estimation error vs the exact projection."""
        if self.exact_utility == 0:
            return 0.0
        return (self.estimated_utility - self.exact_utility) / self.exact_utility

    @property
    def epsilon(self) -> float:
        """The §8.2 theta adjustment: error relative to current utility."""
        if self.current_utility == 0:
            return 0.0
        return (self.estimated_utility - self.exact_utility) / self.current_utility


def local_project_flip(
    cache: RoutingCache,
    deriver: StateDeriver,
    rd: RoundData,
    isp: int,
    turning_on: bool = True,
    model: UtilityModel = UtilityModel.OUTGOING,
    horizon: int = 1,
) -> float:
    """Locally-estimated projected utility of ``isp`` after a flip.

    ``horizon`` bounds how far (in tiebreak-dependency hops) the ISP
    can see reactions: 1 = immediate neighbors only.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    flips, node_secure_new, breaks_new = rd.flipped(deriver, isp, turning_on)
    w = cache.graph.weights

    # destinations whose trees can react: currently-secure ones plus the
    # ISP's own flipped stubs (all locally observable via S*BGP messages)
    positions = set(int(p) for p in rd.secure_dest_positions)
    for node in flips:
        pos = cache.position_of(node)
        if pos is not None:
            positions.add(pos)
    if model is UtilityModel.OUTGOING:
        # only destinations reached over a customer edge pay (Eq. 1)
        customer = int(RouteClass.CUSTOMER)
        positions = {
            pos for pos in positions if rd.arena.cls[pos, isp] == customer
        }

    delta = 0.0
    for pos in positions:
        delta += _incremental_delta(
            rd.dest_state(pos), node_secure_new, breaks_new, flips, isp,
            model, w, horizon,
        )
    return float(rd.utilities[isp]) + delta


def forecast_error_study(
    cache: RoutingCache,
    deriver: StateDeriver,
    rd: RoundData,
    isps: list[int],
    model: UtilityModel = UtilityModel.OUTGOING,
    horizon: int = 1,
) -> list[LocalForecast]:
    """Compare local estimates against exact projections for ``isps``."""
    exact = project_flips(cache, deriver, rd, [(isp, True) for isp in isps], model)
    return [
        LocalForecast(
            isp=isp,
            horizon=horizon,
            estimated_utility=local_project_flip(
                cache, deriver, rd, isp, turning_on=True, model=model, horizon=horizon
            ),
            exact_utility=proj.utility,
            current_utility=float(rd.utilities[isp]),
        )
        for isp, proj in zip(isps, exact)
    ]
