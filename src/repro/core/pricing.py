"""Mapping traffic volume to revenue (§8.4).

The paper equates utility with transited customer-traffic volume and
notes: "In practice, ISPs may use a variety of pricing policies, e.g.,
by volume, flat rates based on discrete units of capacity.  Thus,
extensions might consider ... more accurately map revenue to traffic
volumes."

A :class:`PricingModel` transforms traffic into revenue before the
update rule compares it:

- ``LINEAR``   — revenue = traffic (the paper's model);
- ``TIERED``   — flat rate per discrete capacity unit
  (``ceil(traffic / tier)``): small traffic gains that stay inside the
  current tier earn nothing, damping weak deployment incentives;
- ``CONCAVE``  — ``traffic ** alpha`` with ``alpha < 1``: volume
  discounts compress differences at large ISPs.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np


class PricingModel(enum.Enum):
    """How transited traffic converts to ISP revenue."""

    LINEAR = "linear"
    TIERED = "tiered"
    CONCAVE = "concave"


@dataclasses.dataclass(frozen=True)
class Pricing:
    """A pricing model plus its parameters.

    ``tier`` is the capacity-unit size for TIERED (in traffic-weight
    units); ``alpha`` the exponent for CONCAVE.
    """

    model: PricingModel = PricingModel.LINEAR
    tier: float = 50.0
    alpha: float = 0.7

    def __post_init__(self) -> None:
        if self.tier <= 0:
            raise ValueError(f"tier must be positive, got {self.tier}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")

    def revenue(self, traffic: float) -> float:
        """Revenue earned for transiting ``traffic``."""
        if traffic < 0:
            raise ValueError(f"traffic must be >= 0, got {traffic}")
        if self.model is PricingModel.LINEAR:
            return traffic
        if self.model is PricingModel.TIERED:
            return math.ceil(traffic / self.tier) * self.tier
        return traffic ** self.alpha

    def revenues(self, traffic: np.ndarray) -> np.ndarray:
        """:meth:`revenue` of every entry of ``traffic``, bit for bit."""
        traffic = np.asarray(traffic, dtype=np.float64)
        negative = traffic < 0
        if negative.any():
            self.revenue(float(traffic[negative][0]))  # raises
        if self.model is PricingModel.LINEAR:
            return traffic
        if self.model is PricingModel.TIERED:
            return np.ceil(traffic / self.tier) * self.tier
        # Python's ``**`` is C's pow(); numpy's SIMD power can round the
        # last bit differently, and a decision on the margin would flip
        return np.array(
            [t ** self.alpha for t in traffic.reshape(-1).tolist()], dtype=np.float64
        ).reshape(traffic.shape)

    def improves(
        self, current: np.ndarray, projected: np.ndarray, theta: np.ndarray | float
    ) -> np.ndarray:
        """Update rule (3) on revenues, per entry: deploy iff the flip's
        *revenue* beats the threshold."""
        return self.revenues(projected) > (1.0 + np.asarray(theta, dtype=np.float64)) * (
            self.revenues(current)
        )


LINEAR_PRICING = Pricing(model=PricingModel.LINEAR)
