"""The annotated AS-level graph (Section 3.1 of the paper).

:class:`ASGraph` stores the interdomain topology as an adjacency
structure annotated with business relationships.  Externally ASes are
identified by their AS number; internally every AS has a dense index in
``range(n)`` so that the routing and game engines can use flat lists and
numpy arrays.

The graph enforces GR1 (no customer-provider cycles) via
:meth:`ASGraph.validate`, and classifies every AS into one of the three
roles of the model (stub / ISP / content provider).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.topology.errors import (
    DuplicateASError,
    DuplicateEdgeError,
    RelationshipCycleError,
    UnknownASError,
)
from repro.topology.relationships import ASRole, Relationship


class ASGraph:
    """A mutable AS-level topology annotated with business relationships.

    Parameters
    ----------
    cp_asns:
        AS numbers that are content providers.  They may be added to the
        graph later; the designation applies as soon as the AS exists.

    Notes
    -----
    The adjacency lists ``customers``, ``providers`` and ``peers`` are
    indexed by the dense node index and contain dense node indices.  They
    are the representation consumed by :mod:`repro.routing`; treat them
    as read-only outside this class.
    """

    def __init__(self, cp_asns: Iterable[int] = ()):  # noqa: D107
        self._asns: list[int] = []
        self._index: dict[int, int] = {}
        self.customers: list[list[int]] = []
        self.providers: list[list[int]] = []
        self.peers: list[list[int]] = []
        self._cp_asns: set[int] = set(cp_asns)
        self._edges: set[int] = set()  # one packed key per edge, see below
        self._roles: np.ndarray | None = None
        self._weights: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_as(self, asn: int) -> int:
        """Add an AS and return its dense index.

        Raises :class:`DuplicateASError` if the AS already exists.
        """
        index = self._index
        if asn in index:
            raise DuplicateASError(asn)
        idx = index[asn] = len(self._asns)
        self._asns.append(asn)
        self.customers.append([])
        self.providers.append([])
        self.peers.append([])
        self._roles = None
        if self._weights is not None:
            # assigned weights stay; the new AS weighs one unit
            self._weights = np.append(self._weights, 1.0)
        return idx

    def ensure_as(self, asn: int) -> int:
        """Return the index of ``asn``, adding the AS if it is new."""
        idx = self._index.get(asn)
        if idx is None:
            idx = self.add_as(asn)
        return idx

    # The mutators below run once per edge of every graph built (the
    # generator's ~2.7 edges per AS, every line of an as-rel file), so
    # each looks both endpoints up once and builds the edge key once.
    # An edge's key packs its two dense indices, lower first, into one
    # int: no tuple per edge for the cyclic GC to track.  An edge edit
    # moves roles (an AS with customers is an ISP), never traffic
    # weights: a traffic model assigned before it stays.

    def add_customer_provider(self, provider: int, customer: int) -> None:
        """Add a customer-provider edge (``customer`` pays ``provider``)."""
        index = self._index
        try:
            p = index[provider]
            c = index[customer]
        except KeyError:
            raise UnknownASError(provider if provider not in index else customer) from None
        key = p << 32 | c if p < c else c << 32 | p
        edges = self._edges
        if p == c or key in edges:
            raise DuplicateEdgeError(provider, customer)
        edges.add(key)
        self.customers[p].append(c)
        self.providers[c].append(p)
        self._roles = None

    def add_peering(self, a: int, b: int) -> None:
        """Add a settlement-free peer-to-peer edge between ``a`` and ``b``."""
        index = self._index
        try:
            i = index[a]
            j = index[b]
        except KeyError:
            raise UnknownASError(a if a not in index else b) from None
        key = i << 32 | j if i < j else j << 32 | i
        edges = self._edges
        if i == j or key in edges:
            raise DuplicateEdgeError(a, b)
        edges.add(key)
        peers = self.peers
        peers[i].append(j)
        peers[j].append(i)
        self._roles = None

    def remove_edge(self, a: int, b: int) -> None:
        """Remove whichever edge exists between ``a`` and ``b``.

        Raises :class:`UnknownASError` if either AS is missing and
        :class:`KeyError` if no edge exists.
        """
        i, j = self._require(a), self._require(b)
        key = i << 32 | j if i < j else j << 32 | i
        if key not in self._edges:
            raise KeyError(f"no edge between AS {a} and AS {b}")
        self._edges.discard(key)
        for adj in (self.customers, self.providers, self.peers):
            if j in adj[i]:
                adj[i].remove(j)
            if i in adj[j]:
                adj[j].remove(i)
        self._roles = None

    def _require(self, asn: int) -> int:
        try:
            return self._index[asn]
        except KeyError:
            raise UnknownASError(asn) from None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of ASes in the graph."""
        return len(self._asns)

    @property
    def asns(self) -> list[int]:
        """AS numbers in dense-index order (do not mutate)."""
        return self._asns

    def index(self, asn: int) -> int:
        """Dense index of ``asn``."""
        return self._require(asn)

    def asn(self, idx: int) -> int:
        """AS number at dense index ``idx``."""
        return self._asns[idx]

    def __contains__(self, asn: int) -> bool:
        return asn in self._index

    def __len__(self) -> int:
        return len(self._asns)

    def has_edge(self, a: int, b: int) -> bool:
        """True if any edge exists between ASes ``a`` and ``b``."""
        i = self._index.get(a)
        j = self._index.get(b)
        if i is None or j is None:
            return False
        return (i << 32 | j if i < j else j << 32 | i) in self._edges

    def relationship(self, a: int, b: int) -> Relationship:
        """Relationship of ``b`` as seen from ``a``.

        Raises :class:`UnknownASError` if either AS is missing and
        :class:`KeyError` if no edge exists.
        """
        i, j = self._require(a), self._require(b)
        if j in self.customers[i]:
            return Relationship.CUSTOMER
        if j in self.providers[i]:
            return Relationship.PROVIDER
        if j in self.peers[i]:
            return Relationship.PEER
        raise KeyError(f"no edge between AS {a} and AS {b}")

    def customers_of(self, asn: int) -> list[int]:
        """AS numbers of ``asn``'s customers."""
        return [self._asns[c] for c in self.customers[self._require(asn)]]

    def providers_of(self, asn: int) -> list[int]:
        """AS numbers of ``asn``'s providers."""
        return [self._asns[p] for p in self.providers[self._require(asn)]]

    def peers_of(self, asn: int) -> list[int]:
        """AS numbers of ``asn``'s peers."""
        return [self._asns[p] for p in self.peers[self._require(asn)]]

    def degree(self, asn: int) -> int:
        """Total degree (customers + providers + peers) of ``asn``."""
        i = self._require(asn)
        return len(self.customers[i]) + len(self.providers[i]) + len(self.peers[i])

    def degree_of_index(self, idx: int) -> int:
        """Total degree of the AS at dense index ``idx``."""
        return len(self.customers[idx]) + len(self.providers[idx]) + len(self.peers[idx])

    def edges(self) -> Iterator[tuple[int, int, Relationship]]:
        """Yield each edge once as ``(a, b, relationship-of-b-to-a)``.

        Customer-provider edges are yielded provider-first with
        ``Relationship.CUSTOMER``; peerings with ``Relationship.PEER``.
        """
        for i in range(self.n):
            a = self._asns[i]
            for c in self.customers[i]:
                yield a, self._asns[c], Relationship.CUSTOMER
            for p in self.peers[i]:
                b = self._asns[p]
                if a < b:  # yield each peering once, lower ASN first
                    yield a, b, Relationship.PEER

    def num_customer_provider_edges(self) -> int:
        """Number of customer-provider edges in the graph."""
        return sum(len(cs) for cs in self.customers)

    def num_peering_edges(self) -> int:
        """Number of peer-to-peer edges in the graph."""
        return sum(len(ps) for ps in self.peers) // 2

    # ------------------------------------------------------------------
    # Roles and weights
    # ------------------------------------------------------------------
    @property
    def cp_asns(self) -> set[int]:
        """AS numbers designated as content providers."""
        return set(self._cp_asns)

    def set_content_providers(self, asns: Iterable[int]) -> None:
        """Replace the set of content-provider ASes."""
        self._cp_asns = set(asns)
        self._roles = self._weights = None

    @property
    def roles(self) -> np.ndarray:
        """Per-index :class:`ASRole` array (computed lazily, cached)."""
        if self._roles is None:
            # STUB is 0 and ISP is 1: an AS with customers is an ISP
            roles = np.fromiter(map(bool, self.customers), dtype=np.int8, count=self.n)
            for asn in self._cp_asns:  # a handful: the paper has five
                if asn in self._index:
                    roles[self._index[asn]] = ASRole.CP
            self._roles = roles
        return self._roles

    def role(self, asn: int) -> ASRole:
        """Role of AS ``asn``."""
        return ASRole(int(self.roles[self._require(asn)]))

    def indices_with_role(self, role: ASRole) -> list[int]:
        """Dense indices of all ASes with the given role."""
        return np.flatnonzero(self.roles == int(role)).tolist()

    @property
    def stub_indices(self) -> list[int]:
        """Dense indices of stub ASes."""
        return self.indices_with_role(ASRole.STUB)

    @property
    def isp_indices(self) -> list[int]:
        """Dense indices of ISP ASes (the players of the game)."""
        return self.indices_with_role(ASRole.ISP)

    @property
    def cp_indices(self) -> list[int]:
        """Dense indices of content-provider ASes."""
        return self.indices_with_role(ASRole.CP)

    @property
    def weights(self) -> np.ndarray:
        """Per-index traffic weight ``w_n`` (unit unless set otherwise)."""
        if self._weights is None:
            self._weights = np.ones(self.n, dtype=np.float64)
        return self._weights

    def set_weight(self, asn: int, weight: float) -> None:
        """Set the traffic weight of a single AS."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        self.weights[self._require(asn)] = weight

    # ------------------------------------------------------------------
    # Validation and copying
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check GR1: the customer->provider relation must be acyclic.

        Raises :class:`RelationshipCycleError` with an offending cycle.
        Acyclicity is proven by peeling the hierarchy bottom-up over the
        provider lists (Kahn's algorithm): an AS is peeled once every
        customer of it has been.  Only when ASes remain does the
        depth-first search in index order run, to name the cycle it finds
        first; ``preflight`` drops that cycle's closing edge.
        """
        providers = self.providers
        pending = list(map(len, self.customers))  # customers not yet peeled
        ready = [i for i, left in enumerate(pending) if not left]
        peeled = 0
        while ready:
            peeled += 1
            for p in providers[ready.pop()]:
                pending[p] -= 1
                if not pending[p]:
                    ready.append(p)
        if peeled < self.n:
            raise RelationshipCycleError(self._first_cycle())

    def _first_cycle(self) -> list[int]:
        """The first provider cycle a depth-first search in index order meets."""
        cycle = next(self.provider_cycles(), None)
        if cycle is None:
            raise AssertionError("the peel left ASes behind but no provider cycle exists")
        return cycle

    def provider_cycles(self) -> Iterator[list[int]]:
        """Each provider cycle a depth-first search in index order meets,
        as AS numbers from the first AS on it back to that AS.

        The caller may remove a cycle's closing edge (between its last
        two ASes) before asking for the next.  The search then resumes
        where the edge stood in its provider list: where a search of the
        edited graph from scratch would stand, since nothing it had
        explored has moved.  So dropping each closing edge as it comes
        drops the edges that re-running :meth:`validate` after every
        drop would, in the same order, in one search.
        """
        white, grey, black = 0, 1, 2
        providers, asns = self.providers, self._asns
        color = [white] * self.n
        path: list[int] = []
        for start in range(self.n):
            if color[start] != white:
                continue
            stack: list[list[int]] = [[start, 0]]
            color[start] = grey
            path.append(start)
            while stack:
                top = stack[-1]
                node, pos = top
                ups = providers[node]
                if pos < len(ups):
                    nxt = ups[pos]
                    top[1] = pos + 1
                    if color[nxt] == grey:
                        yield [asns[i] for i in path[path.index(nxt):]] + [asns[nxt]]
                        if pos >= len(ups) or ups[pos] != nxt:
                            top[1] = pos  # dropped: the next provider moved up
                    elif color[nxt] == white:
                        color[nxt] = grey
                        path.append(nxt)
                        stack.append([nxt, 0])
                else:
                    color[node] = black
                    path.pop()
                    stack.pop()

    def copy(self) -> "ASGraph":
        """Deep copy of the graph (roles/weights recomputed lazily)."""
        g = ASGraph(self._cp_asns)
        g._asns = list(self._asns)
        g._index = dict(self._index)
        g.customers = [list(c) for c in self.customers]
        g.providers = [list(p) for p in self.providers]
        g.peers = [list(p) for p in self.peers]
        g._edges = set(self._edges)
        if self._weights is not None:
            g._weights = self._weights.copy()
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ASGraph(n={self.n}, cp_edges={self.num_customer_provider_edges()}, "
            f"peerings={self.num_peering_edges()})"
        )
