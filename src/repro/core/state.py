"""Deployment state (Section 3.2).

A state ``S`` is the set of ASes that have *deliberately* deployed
S*BGP: the early adopters (ISPs, CPs, or stubs), plus every ISP that
chose to deploy in some round.  Stub security is *derived*: a stub runs
simplex S*BGP exactly when it is an early adopter or at least one of
its providers is a secure ISP ("once an ISP becomes secure, it deploys
simplex S*BGP at all its stub customers", §2.3) — and loses it again if
every such provider turns S*BGP off.

CPs deploy only if they are early adopters (they have no transit
revenue to compete for); ISPs are the only ASes that make round-by-
round decisions.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np

from repro.routing.compiled import CompiledGraph, offsets, segment_index
from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole


@dataclasses.dataclass(frozen=True)
class DeploymentState:
    """Immutable deployment state over dense node indices.

    ``deployers`` holds the deliberate S*BGP deployers.  Use
    :func:`derive_security` (or :class:`StateDeriver`) for the full
    per-node security flags including simplex stubs.
    """

    deployers: frozenset[int]
    early_adopters: frozenset[int]

    def with_flips(self, turn_on: Iterable[int] = (), turn_off: Iterable[int] = ()) -> "DeploymentState":
        """New state with the given deployers added / removed."""
        new = set(self.deployers)
        new.update(turn_on)
        new.difference_update(turn_off)
        new.update(self.early_adopters)  # early adopters are pinned
        return DeploymentState(frozenset(new), self.early_adopters)

    def is_deployer(self, node: int) -> bool:
        """True if ``node`` deliberately runs S*BGP in this state."""
        return node in self.deployers

    @classmethod
    def initial(cls, early_adopters: Iterable[int]) -> "DeploymentState":
        """The paper's initial state: exactly the early adopters deploy."""
        ea = frozenset(early_adopters)
        return cls(deployers=ea, early_adopters=ea)


class StateDeriver:
    """Derives per-node security and tie-breaking flags from a state.

    Bound to one graph; reusable across states and rounds.

    Parameters
    ----------
    graph:
        The AS topology.
    stub_breaks_ties:
        Whether stubs running simplex S*BGP apply the SecP tie-break
        (§6.7 evaluates both settings and finds the results insensitive).
    compiled:
        Optional pre-built :class:`CompiledGraph` to share with a cache.
    """

    def __init__(
        self,
        graph: ASGraph,
        stub_breaks_ties: bool = True,
        compiled: CompiledGraph | None = None,
    ):
        self.graph = graph
        self.compiled = compiled or CompiledGraph.from_graph(graph)
        roles = graph.roles
        self.is_stub = roles == int(ASRole.STUB)
        self.is_isp = roles == int(ASRole.ISP)
        self.is_cp = roles == int(ASRole.CP)
        #: static policy: which nodes would apply SecP *if* secure
        self.break_policy = ~self.is_stub | bool(stub_breaks_ties)
        # State-independent index of the stub<-provider edges, kept both
        # flat (for the segment reduce in :meth:`derive`) and as a CSR
        # over providers (for :meth:`stubs_of`).
        cg = self.compiled
        to_stub = self.is_stub[cg.cust_idx]
        self._edge_stub = cg.cust_idx[to_stub]
        self._edge_prov = cg.cust_src[to_stub]
        self._stub_indptr = np.concatenate(([0], np.cumsum(to_stub)))[cg.cust_indptr]

    def _members(self, nodes: frozenset[int]) -> np.ndarray:
        """bool[n]: true at ``nodes``."""
        mask = np.zeros(self.graph.n, dtype=bool)
        mask[np.fromiter(nodes, np.intp, len(nodes))] = True
        return mask

    def derive(self, state: DeploymentState) -> tuple[np.ndarray, np.ndarray]:
        """``(node_secure, deploying_providers)`` of ``state`` in one pass.

        ``node_secure`` is bool[n]: deliberate deployers plus derived
        simplex stubs.  ``deploying_providers`` is int32[n]: per stub,
        how many of its providers deploy (0 for non-stubs) — a stub is
        secure iff it deployed itself (early adopter) or that count is
        positive.
        """
        n = self.graph.n
        secure = self._members(state.deployers)
        # providers are never stubs, so ``secure`` still holds exactly
        # the deployers when the edges read it
        counts = np.bincount(
            self._edge_stub[secure[self._edge_prov]], minlength=n
        ).astype(np.int32)
        secure |= counts > 0
        return secure, counts

    def node_secure(self, state: DeploymentState) -> np.ndarray:
        """bool[n]: deliberate deployers plus derived simplex stubs."""
        return self.derive(state)[0]

    def breaks_ties(self, node_secure: np.ndarray) -> np.ndarray:
        """bool[n]: nodes that actually apply the SecP criterion."""
        return node_secure & self.break_policy

    def stubs_of(self, isp: int) -> np.ndarray:
        """Dense indices of ``isp``'s stub customers."""
        return self._edge_stub[self._stub_indptr[isp]:self._stub_indptr[isp + 1]]

    def flipped_stubs(
        self,
        isps: np.ndarray,
        turning_on: np.ndarray,
        state: DeploymentState,
        node_secure: np.ndarray,
        deploying_providers: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per job, the stub customers whose security flips with the ISP.

        Job ``j`` is ``isps[j]`` flipping to ``turning_on[j]`` on its
        own; returns a CSR ``(indptr, stubs)`` whose segment ``j`` holds
        that job's stubs in :meth:`stubs_of` order.  Reads the derived
        vectors of ``state`` (see :meth:`derive`).  Turning on secures
        the stubs that are not secure yet.  Turning off orphans the
        stubs that neither deployed themselves nor have a second
        deploying provider — and nobody when the ISP does not deploy or
        is a pinned early adopter.
        """
        isps = np.asarray(isps, dtype=np.int64)
        turning_on = np.asarray(turning_on, dtype=bool)
        first = self._stub_indptr[isps]
        counts = self._stub_indptr[isps + 1] - first
        stubs = self._edge_stub[segment_index(first, counts)]
        job = np.repeat(np.arange(len(isps)), counts)
        flips = ~node_secure[stubs]
        if not turning_on.all():
            deploys = self._members(state.deployers)
            leaves = deploys[isps] & ~self._members(state.early_adopters)[isps]
            orphaned = leaves[job] & (deploying_providers[stubs] == 1) & ~deploys[stubs]
            flips = np.where(turning_on[job], flips, orphaned)
        return offsets(np.bincount(job[flips], minlength=len(isps))), stubs[flips]

    def newly_secured_stubs(self, state: DeploymentState, isp: int) -> list[int]:
        """Stubs that would *become* secure if ``isp`` deployed."""
        return self.flipped_stubs([isp], [True], state, *self.derive(state))[1].tolist()

    def orphaned_stubs(self, state: DeploymentState, isp: int) -> list[int]:
        """Stubs that would *lose* security if ``isp`` turned S*BGP off."""
        return self.flipped_stubs([isp], [False], state, *self.derive(state))[1].tolist()
