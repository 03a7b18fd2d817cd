"""The BGP routing-policy model of Appendix A, as a pluggable object.

Every AS ranks the routes it learns to a destination by three criteria
plus a deterministic tie-break:

``LP``  local preference: customer routes over peer routes over provider
        routes;
``SP``  shortest AS path;
``SecP`` if the AS is *secure* and applies the criterion, fully-secure
        paths over insecure ones (the paper's proposal, §2.2.2);
``TB``  a deterministic hash tie-break ``H(a, b)`` on the next hop.

The paper fixes the order ``LP > SP > SecP > TB`` ("security 3rd");
Lychev, Goldberg & Schapira (PAPERS.md) showed that *where* security
sits in that ranking qualitatively changes partial-deployment outcomes.
:class:`RoutingPolicy` makes the ranking a first-class value consumed by
every route-computation layer (scalar propagation, tree kernels,
batched arena, projection, Jacobi fixpoint), and the registry below
names the variants:

========================  ==============================  =================
name                      ranking                         structure
========================  ==============================  =================
``security_3rd``          ``LP > SP  > SecP > TB``        state-independent
``security_2nd``          ``LP > SecP > SP  > TB``        state-dependent
``security_1st``          ``SecP > LP > SP  > TB``        state-dependent
``sp_first``              ``SP > LP  > SecP > TB``        state-independent
``sticky_primaries``      ``LP > SP  > SecP > TB`` [*]_   state-independent
========================  ==============================  =================

.. [*] sticky primaries keeps the default ranking but collapses a fixed
   fraction of ASes' tiebreak sets to a single primary (§8.3).

Export always follows GR2: AS ``b`` announces a route via ``c`` to
neighbor ``a`` iff at least one of ``a`` and ``c`` is ``b``'s customer.

"State-independent" policies satisfy Observation C.1: route class and
length per node do not depend on the deployment state, so one
:class:`~repro.routing.tree.DestRouting` structure serves every state
and only the tie-break resolution is re-run per round.  For
state-dependent policies (SecP outranks SP or LP) the *structure* itself
moves with the security flags, and the cache/projection layers rebuild
it per state (see :mod:`repro.routing.fixpoint`).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.routing.compiled import CompiledGraph
from repro.telemetry.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle (tree imports policy)
    from repro.routing.tree import PoolsAssembly, StructurePools
    from repro.topology.graph import ASGraph


class RouteClass(enum.IntEnum):
    """Local-preference class of a selected route (higher = preferred)."""

    UNREACHABLE = -1
    PROVIDER = 0
    PEER = 1
    CUSTOMER = 2
    SELF = 3  # the destination's own (empty) route


class Criterion(enum.Enum):
    """One step of a routing policy's preference ranking."""

    LP = "lp"      # local preference (route class)
    SP = "sp"      # shortest path
    SECP = "secp"  # secure paths first (when the node applies it)


#: number of low bits of the tie-break key reserved for the candidate's
#: position within a tiebreak set (used to disambiguate hash collisions)
POSITION_BITS = 16

_MIX_1 = np.uint64(0x9E3779B97F4A7C15)
_MIX_2 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_3 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def tie_hash(node: int, candidate: int) -> int:
    """Deterministic 64-bit tie-break hash ``H(node, candidate)``.

    The paper breaks ties by "the path where hash H(a, b) is lowest"
    (Appendix A, TB).  Any fixed pseudo-random function works; this is a
    splitmix64-style mix over the dense indices, stable across runs and
    platforms.
    """
    return int(tie_hash_array(np.array([node], dtype=np.uint64),
                              np.array([candidate], dtype=np.uint64))[0])


def tie_hash_array(nodes: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Vectorised :func:`tie_hash` over aligned uint64 arrays."""
    x = nodes.astype(np.uint64, copy=False) * _MIX_1
    x += candidates.astype(np.uint64, copy=False) * _MIX_3
    x ^= x >> _U64(30)
    x *= _MIX_2
    x ^= x >> _U64(27)
    x *= _MIX_3
    x ^= x >> _U64(31)
    return x


def exportable_to(route_class: RouteClass, neighbor_is_customer: bool) -> bool:
    """GR2: may a route of ``route_class`` be announced to this neighbor?

    ``neighbor_is_customer`` is True when the announcing AS would send
    the route to one of its customers (always allowed); otherwise the
    route must be a customer route or the announcer's own prefix.
    """
    if neighbor_is_customer:
        return route_class is not RouteClass.UNREACHABLE
    return route_class in (RouteClass.CUSTOMER, RouteClass.SELF)


#: salt for the deterministic sticky-primary node mask (any fixed value)
_STICKY_SALT = 0x5F1CC


@functools.lru_cache(maxsize=16)
def _sticky_mask(fraction: float, n: int) -> np.ndarray:
    """The nodes whose salted hash falls below ``fraction``, read-only."""
    nodes = np.arange(n, dtype=np.uint64)
    salt = np.full(n, _STICKY_SALT, dtype=np.uint64)
    frac = tie_hash_array(salt, nodes).astype(np.float64) / float(2**64)
    mask = frac < fraction
    mask.flags.writeable = False
    return mask


@dataclasses.dataclass(frozen=True)
class RoutingPolicy:
    """A complete route-selection policy: its ranking (export is always
    GR2, :func:`exportable_to`).

    ``ranking`` is a permutation of the three :class:`Criterion` values;
    TB is always last.  ``sticky_fraction`` > 0 collapses that fraction
    of nodes' tiebreak sets to their hash-preferred primary (§8.3's
    sticky-primaries deviation) after the structure is built; it needs
    a state-independent ranking, whose tiebreak sets do not move with
    the deployment state.
    """

    name: str
    ranking: tuple[Criterion, Criterion, Criterion]
    sticky_fraction: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if sorted(c.value for c in self.ranking) != ["lp", "secp", "sp"]:
            raise ValueError(
                f"ranking must be a permutation of (LP, SP, SECP), got {self.ranking}"
            )
        if not 0.0 <= self.sticky_fraction <= 1.0:
            raise ValueError(
                f"sticky_fraction must be in [0, 1], got {self.sticky_fraction}"
            )
        if self.sticky_fraction > 0.0 and self.state_dependent:
            raise ValueError(
                f"sticky primaries need a ranking with SecP last, got "
                f"{self.ranking_str()}"
            )

    # -- classification -------------------------------------------------

    @property
    def state_dependent(self) -> bool:
        """Does the *structure* (class/length/tiebreak sets) move with S?

        Under Observation C.1 the SecP step only picks within the
        tiebreak set, which holds exactly when SecP is the last ranked
        criterion.  When SecP outranks SP or LP, a security flip can
        change selected classes and lengths, so every per-state
        structure must be rebuilt (see :mod:`repro.routing.fixpoint`).
        """
        return self.ranking[-1] is not Criterion.SECP

    def ranking_str(self) -> str:
        """Human-readable ranking, e.g. ``"LP > SP > SecP > TB"``."""
        names = {Criterion.LP: "LP", Criterion.SP: "SP", Criterion.SECP: "SecP"}
        return " > ".join(names[c] for c in self.ranking) + " > TB"

    # -- the scalar rank key (reference.propagate) ---------------------

    def rank_key(
        self, route_class: int, length: int, secure: bool, applies_secp: bool
    ) -> tuple[int, ...]:
        """Comparable key for one offered route (lower wins).

        ``secure`` is the offered path's security; ``applies_secp`` is
        whether the choosing node applies the SecP criterion (secure and
        tie-breaking).  TB is not in the key: offers equal on it are
        ranked by :func:`~repro.routing.tree.tie_order`, which
        :func:`~repro.routing.reference.propagate` scans them in.
        """
        parts: list[int] = []
        for crit in self.ranking:
            if crit is Criterion.LP:
                parts.append(-int(route_class))
            elif crit is Criterion.SP:
                parts.append(int(length))
            else:
                parts.append(0 if (applies_secp and secure) else 1)
        return tuple(parts)

    # -- sticky primaries ----------------------------------------------

    def sticky_mask(self, n: int) -> np.ndarray | None:
        """Deterministic bool[n] mask of sticky nodes (None when 0.0),
        read-only.

        A node is sticky iff its salted hash falls below
        ``sticky_fraction`` — stable across runs, no RNG state to ship
        between processes, and computed once per ``(fraction, n)``.
        """
        if self.sticky_fraction <= 0.0:
            return None
        return _sticky_mask(self.sticky_fraction, n)

    def secp_applies(self, node_secure: np.ndarray, breaks_ties: np.ndarray) -> np.ndarray:
        """The nodes that exercise SecP under this policy: secure,
        breaking ties on security, and not sticky (a sticky node never
        exercises alternatives, so SecP has nothing to pick from; the
        hash-minimum the kernels then take *is* its fixed primary)."""
        applies = node_secure & breaks_ties
        sticky = self.sticky_mask(len(applies))
        return applies if sticky is None else applies & ~sticky

    # -- structure builders --------------------------------------------

    def build_pools(
        self,
        graph: "ASGraph",
        dests: Iterable[int],
        compiled: "CompiledGraph | None" = None,
        node_secure: np.ndarray | None = None,
        breaks_ties: np.ndarray | None = None,
        backend: str | None = None,
    ) -> "StructurePools":
        """The structures of ``dests`` under this policy, pooled (slot
        ``k`` is ``dests[k]``), built a destination chunk at a time.

        For state-independent policies ``node_secure``/``breaks_ties``
        are ignored (the structure serves every state).  For
        state-dependent policies they default to all-insecure, and one
        fixpoint sweep set covers each chunk.  ``backend`` names the
        kernel backend that builds the chunks or runs their fixpoint
        sweeps (:mod:`repro.routing.backends`; ``None`` = env var, then
        ``auto``).
        """
        from repro.routing.tree import PoolsAssembly, StructurePools

        dests = np.asarray([int(d) for d in dests], dtype=np.int64)
        assembly = PoolsAssembly(graph.n, dests)
        self.build_into(assembly, 0, graph, dests, compiled, node_secure, breaks_ties, backend)
        return StructurePools(assembly.finish(), self.name)

    def build_into(
        self,
        assembly: "PoolsAssembly",
        lo: int,
        graph: "ASGraph",
        dests: np.ndarray,
        compiled: "CompiledGraph | None" = None,
        node_secure: np.ndarray | None = None,
        breaks_ties: np.ndarray | None = None,
        backend: str | None = None,
    ) -> None:
        """Build the structures of ``dests`` (int64) into slots ``lo:``
        of ``assembly``, a destination chunk at a time (arguments as
        :meth:`build_pools`).  Appendix A's ``LP > SP > SecP`` takes the
        three-pass chunk build, labelled in place on a tier that can size
        its pools first (cext, python) when no node is sticky.  Every
        other ranking converges in the Jacobi fixpoint: under the
        deployment state when its structure moves with it, else
        (``sp_first``) with nobody secure.  Chunks built whole are
        handed over, restricted first when nodes are sticky."""
        from repro.routing import backends as kernel_backends
        from repro.routing.tree import chunk_pools, destination_chunks

        cg = compiled or CompiledGraph.from_graph(graph)
        sticky = self.sticky_mask(graph.n)
        if self.ranking == (Criterion.LP, Criterion.SP, Criterion.SECP):
            name, kernels = kernel_backends.kernels_for(kernel_backends.resolve_backend(backend))
            if sticky is None and hasattr(kernels, "structure_labels"):
                for chunk in destination_chunks(cg, dests):
                    assembly.label(lo, chunk, cg, kernels)
                    get_registry().counter("routing.structure.chunks").inc()
                    lo += len(chunk)
                return
            parts = chunk_pools(cg, dests, name)
        else:
            from repro.routing.fixpoint import fixpoint_pools

            if not self.state_dependent:
                node_secure = breaks_ties = None
            parts = fixpoint_pools(
                graph, dests, self, cg,
                node_secure=node_secure, breaks_ties=breaks_ties,
                backend=backend,
            )
        if sticky is not None:
            parts = (part.restrict_to_primary(sticky) for part in parts)
        for part in parts:
            assembly.take(lo, part)
            lo += part.num_dests


# -- the §8.3 deviations ------------------------------------------------
#
# The paper's §8.3 speculates about two deviations from the Appendix-A
# model; both produce standard pooled structures, so the entire
# deployment game runs unchanged on top of them:
#
# - shortest-path-first ("we speculate that considering shortest path
#   routing policy would lead to overly optimistic results"): ranking
#   SP > LP > SecP > TB.  SecP ranks last, so the structure does not
#   move with the state, and build_into converges it once in the Jacobi
#   fixpoint with nobody secure;
# - sticky primaries ("if a large fraction of multihomed ASes always
#   use one provider as primary ... our current analysis is likely to
#   be overly optimistic"): StructurePools.restrict_to_primary collapses
#   sticky nodes' tiebreak sets to a single fixed choice after the
#   structure is built, under any ranking with SecP last.


# -- the registry -------------------------------------------------------

_REGISTRY: dict[str, RoutingPolicy] = {}
_ALIASES: dict[str, str] = {}

#: canonical name of the paper's Appendix-A policy
DEFAULT_POLICY = "security_3rd"


def register_policy(policy: RoutingPolicy, aliases: Iterable[str] = ()) -> RoutingPolicy:
    """Add ``policy`` to the registry (idempotent for identical entries)."""
    existing = _REGISTRY.get(policy.name)
    if existing is not None and existing != policy:
        raise ValueError(f"policy {policy.name!r} already registered differently")
    _REGISTRY[policy.name] = policy
    for alias in aliases:
        target = _ALIASES.get(alias)
        if target is not None and target != policy.name:
            raise ValueError(f"alias {alias!r} already points at {target!r}")
        _ALIASES[alias] = policy.name
    return policy


def get_policy(policy: "str | RoutingPolicy") -> RoutingPolicy:
    """Resolve a policy name (or alias, or policy object) to the object."""
    if isinstance(policy, RoutingPolicy):
        return policy
    name = _ALIASES.get(policy, policy)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {policy!r}; choose from {available_policies()}"
        ) from None


def available_policies() -> list[str]:
    """Canonical names of every registered policy, sorted."""
    return sorted(_REGISTRY)


def policy_table() -> list[tuple[str, str, str]]:
    """``(name, ranking, description)`` rows for docs and ``--help``."""
    return [
        (p.name, p.ranking_str(), p.description)
        for p in (_REGISTRY[k] for k in available_policies())
    ]


_LP, _SP, _SECP = Criterion.LP, Criterion.SP, Criterion.SECP

register_policy(
    RoutingPolicy(
        name="security_3rd",
        ranking=(_LP, _SP, _SECP),
        description="Appendix A default: security breaks ties only",
    ),
    aliases=("default", "gao-rexford"),
)

register_policy(
    RoutingPolicy(
        name="security_2nd",
        ranking=(_LP, _SECP, _SP),
        description="security above path length (Lychev et al. '2nd')",
    ),
)

register_policy(
    RoutingPolicy(
        name="security_1st",
        ranking=(_SECP, _LP, _SP),
        description="security above everything (Lychev et al. '1st')",
    ),
)

register_policy(
    RoutingPolicy(
        name="sp_first",
        ranking=(_SP, _LP, _SECP),
        description="shortest-path-first deviation (§8.3)",
    ),
    aliases=("sp-first",),
)

register_policy(
    RoutingPolicy(
        name="sticky_primaries",
        ranking=(_LP, _SP, _SECP),
        sticky_fraction=0.5,
        description="half the ASes pin a fixed primary next hop (§8.3)",
    ),
    aliases=("sticky",),
)
