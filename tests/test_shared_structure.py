"""Request-independent structure is computed once per graph and shared.

Routing tables, neighbour sets, tree graphs and counting-network wiring
do not depend on the request set, so every execution on the same
:class:`Graph` or :class:`SpanningTree` object shares them.  These tests
pin the sharing itself and, more importantly, that no per-run state
(balancer toggles, counters, queues) leaks through it: every run on a
reused graph equals the same run on a freshly built one.
"""

from __future__ import annotations

import pytest

from repro.arrow import run_arrow
from repro.counting import (
    run_central_counting,
    run_combining_counting,
    run_counting_network,
    run_periodic_counting,
)
from repro.counting.network import _bitonic_wiring, _embedded_network
from repro.directory import run_object_directory
from repro.resilience import MonitorSet, PeriodicCheckpointer
from repro.sim import EventTrace, SynchronousNetwork
from repro.sim.node import Node
from repro.topology import (
    bfs_spanning_tree,
    complete_graph,
    mesh_graph,
    path_graph,
    star_graph,
)
from repro.topology.base import Graph, TopologyError
from repro.tree import RootedTree


class TestHasEdge:
    @pytest.mark.parametrize(
        "graph",
        [path_graph(6), star_graph(7), mesh_graph([3, 4]), complete_graph(5)],
        ids=lambda g: g.name,
    )
    def test_matches_edge_list_in_both_orientations(self, graph):
        edges = set(graph.edges())
        for u in graph.vertices():
            for v in graph.vertices():
                expected = (min(u, v), max(u, v)) in edges
                assert graph.has_edge(u, v) is expected, (u, v)

    def test_non_edges_and_unknown_vertices(self):
        g = path_graph(4)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(3, 0)
        assert not g.has_edge(0, 0)
        assert not g.has_edge(9, 0)
        assert not g.has_edge(0, 9)

    def test_unsorted_direct_construction(self):
        g = Graph({0: (2, 1), 1: (0,), 2: (0,)})
        assert g.has_edge(0, 1) and g.has_edge(1, 0) and g.has_edge(2, 0)
        assert not g.has_edge(1, 2)
        assert g.sorted_adjacency() == {0: (1, 2), 1: (0,), 2: (0,)}


class TestMemo:
    def test_memo_is_invisible_to_eq_and_repr(self):
        a, b = mesh_graph([3, 3]), mesh_graph([3, 3])
        a.next_hops(4)
        a.neighbor_sets()
        assert a == b
        assert repr(a) == repr(b) == "Graph(name='mesh(3x3)', n=9, m=12)"

    def test_structures_are_built_once(self):
        g = star_graph(5)
        assert g.next_hops(0) is g.next_hops(0)
        assert g.neighbor_sets() is g.neighbor_sets()
        assert g.sorted_adjacency() is g.sorted_adjacency()

    def test_next_hops_rejects_unknown_destinations(self):
        g = path_graph(4)
        for dest in (-1, 4):
            with pytest.raises(TopologyError, match="out of range"):
                g.next_hops(dest)

    def test_tree_next_hops_are_the_rerooted_parents(self):
        st = bfs_spanning_tree(mesh_graph([3, 4]))
        for tail in st.graph.vertices():
            rerooted = RootedTree.from_edges(st.n, st.tree.edges(), root=tail)
            assert st.as_graph().next_hops(tail) == rerooted.parent
        assert st.as_graph().next_hops(st.root) == st.tree.parent

    def test_equal_graphs_do_not_share_tables(self):
        # Equal but distinct objects each derive their own structure.
        a, b = path_graph(5), path_graph(5)
        assert a.next_hops(0) == b.next_hops(0)
        assert a.next_hops(0) is not b.next_hops(0)

    def test_engine_shares_the_graph_structure(self):
        g = mesh_graph([2, 3])

        def net() -> SynchronousNetwork:
            return SynchronousNetwork(g, {v: Node(v) for v in g.vertices()})

        first, second = net(), net()
        for v in g.vertices():
            assert first.neighbors(v) is second.neighbors(v) is g.sorted_adjacency()[v]
            assert first.neighbor_set(v) is g.neighbor_sets()[v]

    def test_as_graph_built_once_per_spanning_tree(self):
        st = bfs_spanning_tree(mesh_graph([3, 3]))
        assert st.as_graph() is st.as_graph()
        assert "_tree_graph" not in repr(st)

    def test_wiring_built_once_per_width(self):
        assert _bitonic_wiring(8) is _bitonic_wiring(8)
        assert _bitonic_wiring(8).width == 8


# ------------------------------------------------ per-run state isolation


class TestIsolation:
    """Two runs on one graph object equal runs on freshly built graphs."""

    def test_counting_network_interleaved_widths(self):
        shared = complete_graph(16)
        req = [0, 3, 5, 6, 9, 12, 15]
        for width in (8, 16, 8, 16):
            got = run_counting_network(shared, req, width=width)
            assert got == run_counting_network(complete_graph(16), req, width=width)

    def test_periodic_network_reuses_graph(self):
        shared = mesh_graph([4, 4])
        for width in (8, 16, 8):
            got = run_periodic_counting(shared, range(16), width=width)
            assert got == run_periodic_counting(mesh_graph([4, 4]), range(16), width=width)

    def test_central_with_two_roots(self):
        shared = mesh_graph([3, 4])
        req = [1, 3, 4, 7, 10, 11]
        for root in (0, 3, 0, 3):
            got = run_central_counting(shared, req, root=root)
            assert got == run_central_counting(mesh_graph([3, 4]), req, root=root)

    def test_directory(self):
        shared = mesh_graph([3, 3])
        tree = bfs_spanning_tree(shared)
        for use_rounds in (1, 2, 1):
            got = run_object_directory(shared, tree, range(9), use_rounds=use_rounds)
            fresh = mesh_graph([3, 3])
            want = run_object_directory(fresh, bfs_spanning_tree(fresh), range(9),
                                        use_rounds=use_rounds)
            assert got == want

    def test_arrow_with_two_tails(self):
        tree = bfs_spanning_tree(mesh_graph([3, 4]))
        req = [1, 2, 6, 9, 11]
        for tail in (0, 7, 0, 7):
            fresh = bfs_spanning_tree(mesh_graph([3, 4]))
            assert run_arrow(tree, req, tail=tail) == run_arrow(fresh, req, tail=tail)

    def test_arrow_and_combining_on_one_spanning_tree(self):
        tree = bfs_spanning_tree(mesh_graph([4, 4]))
        req = [0, 2, 5, 7, 8, 13, 15]
        for _ in range(2):
            fresh = bfs_spanning_tree(mesh_graph([4, 4]))
            assert run_arrow(tree, req) == run_arrow(fresh, req)
            assert run_combining_counting(tree, req) == run_combining_counting(fresh, req)

    def test_counting_network_checkpoint_resumes_identically(self):
        graph = complete_graph(12)
        req = list(range(12))
        full_trace = EventTrace()
        _, full = _embedded_network(graph, req, _bitonic_wiring(8), trace=full_trace)
        full.run()
        cpr = PeriodicCheckpointer(every=2, keep=50)
        _, net = _embedded_network(graph, req, _bitonic_wiring(8), trace=EventTrace(),
                                   monitors=MonitorSet(checkpointer=cpr))
        net.run()
        assert len(cpr.checkpoints) > 2
        for cp in cpr.checkpoints:
            resumed = cp.restore()
            resumed.resume()
            assert resumed.trace.events == full_trace.events, cp.round
            assert resumed.stats == full.stats
            assert resumed.delays.result_by_op() == full.delays.result_by_op()
        # The snapshots ran on copies: the shared wiring is untouched and
        # a new run on the same graph still matches.
        assert run_counting_network(graph, req, width=8) == run_counting_network(
            complete_graph(12), req, width=8
        )
