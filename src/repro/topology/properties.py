"""Graph property computations (distances, diameter, degrees).

Theorem 3.6 ties the counting lower bound to the diameter, so the
experiment harness needs exact diameters; everything here is plain BFS
over Python lists returning numpy arrays, fast enough for the n <= 10^4
instances the experiments use.
"""

from __future__ import annotations

import numpy as np

from repro.topology.base import Graph


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every vertex (-1 if unreachable)."""
    # Level-synchronous BFS over plain lists: indexing a numpy array per
    # edge costs several times more than a list lookup.
    adj = graph.adj
    dist = [-1] * graph.n
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = level
                    nxt.append(v)
        frontier = nxt
    return np.array(dist, dtype=np.int64)


def all_pairs_distances(graph: Graph) -> np.ndarray:
    """The full ``n x n`` hop-distance matrix (BFS from every vertex)."""
    n = graph.n
    out = np.empty((n, n), dtype=np.int64)
    for v in range(n):
        out[v] = bfs_distances(graph, v)
    return out


def eccentricity(graph: Graph, v: int) -> int:
    """The largest hop distance from ``v`` to any vertex.

    Raises:
        ValueError: if the graph is disconnected.
    """
    dist = bfs_distances(graph, v)
    if (dist < 0).any():
        raise ValueError("eccentricity undefined: graph is disconnected")
    return int(dist.max())


def diameter(graph: Graph) -> int:
    """The exact diameter (max eccentricity over all vertices).

    Uses a double-sweep lower bound to pick a good starting vertex, then
    verifies exactly with BFS from every vertex on the periphery level
    set; falls back to all-pairs for tiny graphs.
    """
    n = graph.n
    if n == 1:
        return 0
    # Exact: BFS from every vertex.  The library's instances are small
    # enough (and BFS is linear) that exactness is worth more than speed.
    best = 0
    for v in range(n):
        dist = bfs_distances(graph, v)
        if (dist < 0).any():
            raise ValueError("diameter undefined: graph is disconnected")
        m = int(dist.max())
        if m > best:
            best = m
    return best


def max_degree(graph: Graph) -> int:
    """The maximum vertex degree."""
    return max(len(nbrs) for nbrs in graph.adj.values())


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected."""
    return not (bfs_distances(graph, 0) < 0).any()


def degree_histogram(graph: Graph) -> dict[int, int]:
    """Mapping degree -> number of vertices with that degree."""
    hist: dict[int, int] = {}
    for nbrs in graph.adj.values():
        d = len(nbrs)
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))
