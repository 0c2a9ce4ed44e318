"""The Graph value type shared by the whole library."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping


class TopologyError(ValueError):
    """Raised for malformed graph constructions or invalid parameters."""


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices ``0 .. n-1``.

    The representation is an immutable adjacency mapping with sorted
    neighbor tuples; all the library's graphs are built through
    :meth:`from_edges` which validates simplicity (no loops, no parallel
    edges) and vertex labelling.

    Structure that does not depend on any request set — the normalised
    adjacency, neighbour sets and shortest-path next-hop tables — is
    derived on first use and memoised on the graph object, so every
    execution on the same graph shares it (initialization is free,
    Section 2.2).  The memo takes no part in ``==`` or ``repr``; the
    shared objects are read-only.

    Attributes:
        adj: mapping vertex -> sorted tuple of neighbors.
        name: human-readable family label, e.g. ``"mesh(8x8)"``.
    """

    adj: Mapping[int, tuple[int, ...]]
    name: str = field(default="graph", compare=False)
    _memo: dict[str, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], name: str = "graph") -> "Graph":
        """Build a graph on ``{0..n-1}`` from an edge list.

        Raises:
            TopologyError: on self-loops, out-of-range endpoints, or n < 1.
        """
        if n < 1:
            raise TopologyError(f"graph needs at least one vertex, got n={n}")
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in edges:
            if u == v:
                raise TopologyError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        graph = Graph({v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}, name=name)
        graph._memo["adj"] = graph.adj  # already sorted: share, don't copy
        return graph

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.adj)

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2

    def vertices(self) -> range:
        """The vertex set as ``range(n)``."""
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as ordered pairs ``(u, v)`` with ``u < v``."""
        for u in sorted(self.adj):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge (a set lookup, O(1))."""
        nbrs = self.neighbor_sets().get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of ``v``."""
        return self.adj[v]

    def sorted_adjacency(self) -> dict[int, tuple[int, ...]]:
        """``adj`` with every neighbour tuple sorted (memoised, read-only)."""
        adj = self._memo.get("adj")
        if adj is None:
            adj = self._memo["adj"] = {v: tuple(sorted(nbrs)) for v, nbrs in self.adj.items()}
        return adj

    def neighbor_sets(self) -> dict[int, frozenset[int]]:
        """Mapping vertex -> frozenset of neighbours (memoised, read-only)."""
        sets = self._memo.get("nbr_sets")
        if sets is None:
            sets = self._memo["nbr_sets"] = {v: frozenset(nbrs) for v, nbrs in self.adj.items()}
        return sets

    def next_hops(self, dest: int) -> tuple[int, ...]:
        """Shortest-path next hop toward ``dest`` from every vertex (memoised).

        Entry ``v`` is the smallest-id neighbour of ``v`` one BFS level
        closer to ``dest``; entry ``dest`` is ``dest`` itself.  Computed
        once per destination and shared by every caller.

        Raises:
            TopologyError: if ``dest`` is not a vertex or some vertex
                cannot reach it.
        """
        tables = self._memo.get("next_hops")
        if tables is None:
            tables = self._memo["next_hops"] = {}
        table = tables.get(dest)
        if table is None:
            table = tables[dest] = _next_hop_table(self, dest)
        return table

    def __repr__(self) -> str:
        return f"Graph(name={self.name!r}, n={self.n}, m={self.m})"


def _next_hop_table(graph: Graph, dest: int) -> tuple[int, ...]:
    """BFS from ``dest``, then each vertex's smallest-id neighbour one level closer."""
    from repro.topology.properties import bfs_distances  # local: avoid cycle

    if not 0 <= dest < graph.n:
        raise TopologyError(f"vertex {dest} out of range for n={graph.n}")
    dist = bfs_distances(graph, dest).tolist()
    if -1 in dist:
        raise TopologyError(
            f"graph is disconnected: vertex {dist.index(-1)} cannot reach {dest}"
        )
    hops = list(range(graph.n))
    for v, nbrs in graph.sorted_adjacency().items():
        closer = dist[v] - 1
        for u in nbrs:
            if dist[u] == closer:
                hops[v] = u
                break
    return tuple(hops)
