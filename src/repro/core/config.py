"""Simulation configuration (the paper's parameter space, §6.2)."""

from __future__ import annotations

import dataclasses
import enum


class UtilityModel(enum.Enum):
    """The two ISP utility models of Section 3.3.

    ``OUTGOING``: traffic an ISP forwards toward destinations reached
    over a customer edge (Eq. 1).  Theorem 6.2: secure ISPs never want
    to turn S*BGP off, so the process always terminates.

    ``INCOMING``: traffic an ISP receives over customer edges (Eq. 2).
    ISPs may want to turn S*BGP off (Fig. 13) and the process can
    oscillate forever (Theorem 7.1).
    """

    OUTGOING = "outgoing"
    INCOMING = "incoming"


class ProjectionEngine(enum.Enum):
    """How projected utilities are computed.

    ``FULL`` recomputes every relevant routing tree in the flipped
    state (one stacked kernel pass); ``INCREMENTAL`` propagates security
    deltas through the tiebreak graph (output-sensitive).  Their sums
    run in different orders, so a few ISPs a round get a utility that
    differs in the last bit (a game's state memo keys on the engine).
    Both prune with the Appendix-C.4 destination filters.  FULL is the
    default and the faster at every size measured: 14-24x on cext and
    about 6x on numpy for a first-round ``project_flips`` of the
    section-5 game, N=1,000 to 16,000 (ROADMAP item 9).
    """

    FULL = "full"
    INCREMENTAL = "incremental"


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the deployment game.

    ``theta`` is the deployment threshold of update rule (3): an ISP
    flips iff its projected utility exceeds ``(1 + theta)`` times its
    current utility.  The paper sweeps theta in [0, 0.5].
    """

    theta: float = 0.05
    utility_model: UtilityModel = UtilityModel.OUTGOING
    stub_breaks_ties: bool = True
    projection: ProjectionEngine = ProjectionEngine.FULL
    max_rounds: int = 200
    #: routing-policy registry name (or alias) driving route selection:
    #: "security_3rd" is the paper's Appendix-A ranking; "security_2nd"
    #: / "security_1st" promote SecP (Lychev et al.); "sp_first" /
    #: "sticky_primaries" are the §8.3 deviations
    policy: str = "security_3rd"
    #: accepted and ignored: a game plays in one process whatever the
    #: count (DESIGN.md §10); kept so existing configs still construct
    workers: int = 1

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        from repro.routing.policy import get_policy

        # resolve aliases eagerly so equal configs compare equal and the
        # journal always records the canonical name
        object.__setattr__(self, "policy", get_policy(self.policy).name)

    @property
    def turn_off_enabled(self) -> bool:
        """Whether secure ISPs may turn S*BGP off: only under INCOMING
        (Theorem 6.2 rules it out under OUTGOING)."""
        return self.utility_model is UtilityModel.INCOMING
