"""Engine semantics: unit delay, capacities, FIFO, arbitration, wakeups."""

from __future__ import annotations

import pytest

from repro.sim import (
    CapacityError,
    EventTrace,
    Message,
    Node,
    ProtocolViolation,
    RoundLimitExceeded,
    SynchronousNetwork,
)
from repro.topology import complete_graph, path_graph, star_graph


class Sender(Node):
    """Sends a fixed batch of messages at start, counts receipts."""

    def __init__(self, node_id, sends=()):
        super().__init__(node_id)
        self.sends = list(sends)
        self.received: list[Message] = []
        self.recv_rounds: list[int] = []

    def on_start(self, ctx):
        for dst, kind in self.sends:
            ctx.send(dst, kind)

    def on_receive(self, msg, ctx):
        self.received.append(msg)
        self.recv_rounds.append(ctx.now)


def line(n=2, **caps):
    g = path_graph(n)
    nodes = {v: Sender(v) for v in range(n)}
    return g, nodes


class TestBasics:
    def test_single_message_takes_one_round(self):
        g, nodes = line(2)
        nodes[0].sends = [(1, "x")]
        net = SynchronousNetwork(g, nodes)
        stats = net.run()
        assert stats.rounds == 1
        assert nodes[1].recv_rounds == [1]

    def test_message_fields_filled(self):
        g, nodes = line(2)
        nodes[0].sends = [(1, "x")]
        SynchronousNetwork(g, nodes).run()
        (msg,) = nodes[1].received
        assert (msg.src, msg.dst, msg.kind) == (0, 1, "x")
        assert msg.sent_at == 0 and msg.delivered_at == 1
        assert msg.link_wait() == 0

    def test_no_messages_means_zero_rounds(self):
        g, nodes = line(3)
        stats = SynchronousNetwork(g, nodes).run()
        assert stats.rounds == 0
        assert stats.messages_sent == 0

    def test_undelivered_message_link_wait_raises(self):
        msg = Message(src=0, dst=1, kind="x")
        with pytest.raises(ValueError):
            msg.link_wait()

    def test_run_twice_rejected(self):
        g, nodes = line(2)
        net = SynchronousNetwork(g, nodes)
        net.run()
        with pytest.raises(ProtocolViolation):
            net.run()

    def test_send_to_non_neighbor_rejected(self):
        g = path_graph(3)
        nodes = {v: Sender(v) for v in range(3)}
        nodes[0].sends = [(2, "x")]  # 0 and 2 are not adjacent
        with pytest.raises(ProtocolViolation):
            SynchronousNetwork(g, nodes).run()

    def test_missing_node_rejected(self):
        g = path_graph(3)
        with pytest.raises(ProtocolViolation):
            SynchronousNetwork(g, {0: Sender(0)})

    def test_extra_node_rejected(self):
        g = path_graph(3)
        nodes = {v: Sender(v) for v in range(4)}  # vertex 3 is not in the graph
        with pytest.raises(ProtocolViolation, match="not in the graph"):
            SynchronousNetwork(g, nodes)

    def test_non_contiguous_ids_rejected(self):
        adj = {0: [2], 2: [0, 5], 5: [2]}
        nodes = {v: Sender(v) for v in adj}
        with pytest.raises(ProtocolViolation, match=r"0\.\.n-1 .*\[5\]"):
            SynchronousNetwork(adj, nodes)

    def test_empty_graph_runs_zero_rounds(self):
        net = SynchronousNetwork(range(0), {})
        assert net.run().rounds == 0
        assert net.node_ids == []

    def test_invalid_capacities_rejected(self):
        g, nodes = line(2)
        with pytest.raises(CapacityError):
            SynchronousNetwork(g, nodes, send_capacity=0)
        with pytest.raises(CapacityError):
            SynchronousNetwork(g, nodes, recv_capacity=-1)


class TestContention:
    def test_receive_capacity_serialises_star_hub(self):
        """k leaves send to the hub; hub receives exactly one per round."""
        n = 8
        g = star_graph(n)
        nodes = {v: Sender(v) for v in range(n)}
        for v in range(1, n):
            nodes[v].sends = [(0, "x")]
        trace = EventTrace()
        net = SynchronousNetwork(g, nodes, trace=trace)
        stats = net.run()
        assert stats.rounds == n - 1
        assert nodes[0].recv_rounds == list(range(1, n))
        assert trace.max_deliveries_in_a_round() == 1

    def test_send_capacity_serialises_broadcast(self):
        """The hub sends to k leaves; one message leaves per round."""
        n = 6
        g = star_graph(n)
        nodes = {v: Sender(v) for v in range(n)}
        nodes[0].sends = [(v, "x") for v in range(1, n)]
        trace = EventTrace()
        net = SynchronousNetwork(g, nodes, trace=trace)
        net.run()
        assert trace.max_sends_in_a_round() == 1
        # leaf v is the (v)-th message out: leaves round v-1, arrives v.
        for v in range(1, n):
            assert nodes[v].recv_rounds == [v]

    def test_recv_capacity_two_halves_the_time(self):
        n = 9
        g = star_graph(n)
        nodes = {v: Sender(v) for v in range(n)}
        for v in range(1, n):
            nodes[v].sends = [(0, "x")]
        net = SynchronousNetwork(g, nodes, recv_capacity=2)
        stats = net.run()
        assert stats.rounds == (n - 1 + 1) // 2

    def test_fifo_per_link(self):
        """Messages on one link are delivered in send order."""
        g = path_graph(2)
        nodes = {0: Sender(0, [(1, f"m{i}") for i in range(5)]), 1: Sender(1)}
        SynchronousNetwork(g, nodes).run()
        assert [m.kind for m in nodes[1].received] == [f"m{i}" for i in range(5)]

    def test_arbitration_deterministic_by_send_time_then_seq(self):
        """Simultaneous arrivals are served oldest-first, then by creation."""
        g = star_graph(4)
        nodes = {v: Sender(v) for v in range(4)}
        for v in (3, 2, 1):  # creation order 3, 2, 1 by on_start node order 1,2,3
            nodes[v].sends = [(0, "x")]
        SynchronousNetwork(g, nodes).run()
        # on_start runs in node-id order, so seq order is 1, 2, 3.
        assert [m.src for m in nodes[0].received] == [1, 2, 3]

    def test_total_link_wait_accounts_contention(self):
        n = 5
        g = star_graph(n)
        nodes = {v: Sender(v) for v in range(n)}
        for v in range(1, n):
            nodes[v].sends = [(0, "x")]
        net = SynchronousNetwork(g, nodes)
        stats = net.run()
        # waits are 0,1,2,3 for the four messages
        assert stats.total_link_wait == 0 + 1 + 2 + 3


class RelayNode(Node):
    """Forwards every received message along a fixed next pointer."""

    def __init__(self, node_id, nxt=None):
        super().__init__(node_id)
        self.nxt = nxt
        self.recv_rounds: list[int] = []

    def on_start(self, ctx):
        if self.node_id == 0 and self.nxt is not None:
            ctx.send(self.nxt, "hop")

    def on_receive(self, msg, ctx):
        self.recv_rounds.append(ctx.now)
        if self.nxt is not None:
            ctx.send(self.nxt, "hop")


class TestPipelines:
    def test_relay_chain_delay_equals_distance(self):
        n = 6
        g = path_graph(n)
        nodes = {v: RelayNode(v, nxt=v + 1 if v + 1 < n else None) for v in range(n)}
        stats = SynchronousNetwork(g, nodes).run()
        assert nodes[n - 1].recv_rounds == [n - 1]
        assert stats.rounds == n - 1

    def test_round_limit_exceeded(self):
        class PingPong(Node):
            def on_start(self, ctx):
                if self.node_id == 0:
                    ctx.send(1, "ping")

            def on_receive(self, msg, ctx):
                ctx.send(msg.src, "ping")

        g = path_graph(2)
        nodes = {0: PingPong(0), 1: PingPong(1)}
        with pytest.raises(RoundLimitExceeded) as exc:
            SynchronousNetwork(g, nodes).run(max_rounds=50)
        assert exc.value.max_rounds == 50
        assert exc.value.in_flight >= 1


class WakerNode(Node):
    def __init__(self, node_id, at=()):
        super().__init__(node_id)
        self.at = list(at)
        self.woke: list[int] = []

    def on_start(self, ctx):
        for t in self.at:
            ctx.schedule_wakeup(t)

    def on_wake(self, ctx):
        self.woke.append(ctx.now)


class TestWakeups:
    def test_wakeup_fires_at_scheduled_round(self):
        g = path_graph(2)
        nodes = {0: WakerNode(0, at=[3]), 1: WakerNode(1)}
        net = SynchronousNetwork(g, nodes)
        net.run()
        assert nodes[0].woke == [3]

    def test_idle_clock_jumps_to_next_wakeup(self):
        g = path_graph(2)
        nodes = {0: WakerNode(0, at=[1000]), 1: WakerNode(1)}
        net = SynchronousNetwork(g, nodes)
        stats = net.run(max_rounds=2000)
        assert nodes[0].woke == [1000]
        assert stats.rounds == 1000

    def test_past_wakeup_rejected(self):
        class BadWaker(Node):
            def on_start(self, ctx):
                ctx.schedule_wakeup(0)

        g = path_graph(2)
        with pytest.raises(ProtocolViolation):
            SynchronousNetwork(g, {0: BadWaker(0), 1: BadWaker(1)}).run()

    def test_multiple_nodes_wake_same_round(self):
        g = path_graph(3)
        nodes = {v: WakerNode(v, at=[2]) for v in range(3)}
        SynchronousNetwork(g, nodes).run()
        assert all(nodes[v].woke == [2] for v in range(3))

    @pytest.mark.parametrize("traced", [False, True])
    def test_long_idle_schedule_executes_few_rounds(self, traced):
        """A sparse wakeup schedule must cost work per *event*, not per round.

        The engine's next-event heap jumps the clock over idle stretches:
        wakeups at rounds 10^3, 10^6, 10^9 execute only a handful of
        rounds.  Asserting ``rounds_executed`` (not just the results)
        pins the jumping itself — a regression to linear scanning would
        still produce the right wake rounds, just astronomically slower.
        An attached trace must not disturb the jumps.
        """
        marks = [1_000, 1_000_000, 1_000_000_000]
        g = path_graph(2)
        nodes = {0: WakerNode(0, at=marks), 1: WakerNode(1)}
        net = SynchronousNetwork(g, nodes, trace=EventTrace() if traced else None)
        stats = net.run(max_rounds=2_000_000_000)
        assert nodes[0].woke == marks
        assert stats.rounds == marks[-1]
        # One executed round per wakeup event (the engine enters the loop
        # once per jump target), not one per clock tick.
        assert net.rounds_executed <= len(marks) + 1

    @pytest.mark.parametrize("traced", [False, True])
    def test_rounds_executed_counts_busy_rounds(self, traced):
        n = 6
        g = path_graph(n)
        nodes = {v: RelayNode(v, nxt=v + 1 if v + 1 < n else None) for v in range(n)}
        net = SynchronousNetwork(g, nodes, trace=EventTrace() if traced else None)
        stats = net.run()
        # A relay chain is busy every round: no jumps, executed == clock.
        assert net.rounds_executed == stats.rounds == n - 1


class CompletingNode(Node):
    def on_start(self, ctx):
        ctx.complete(("op", self.node_id), result=self.node_id * 10)


class TestCompletions:
    def test_completion_recorded_with_round_and_result(self):
        g = path_graph(2)
        net = SynchronousNetwork(g, {0: CompletingNode(0), 1: CompletingNode(1)})
        net.run()
        assert net.delays.delay_by_op() == {("op", 0): 0, ("op", 1): 0}
        assert net.delays.result_by_op() == {("op", 0): 0, ("op", 1): 10}

    def test_double_completion_rejected(self):
        class Doubler(Node):
            def on_start(self, ctx):
                ctx.complete("x")
                ctx.complete("x")

        g = path_graph(2)
        with pytest.raises(ProtocolViolation):
            SynchronousNetwork(g, {0: Doubler(0), 1: Doubler(1)}).run()


class TestGraphInputs:
    def test_accepts_adjacency_mapping(self):
        adj = {0: [1], 1: [0, 2], 2: [1]}
        nodes = {v: Sender(v) for v in range(3)}
        nodes[0].sends = [(1, "x")]
        net = SynchronousNetwork(adj, nodes)
        net.run()
        assert nodes[1].recv_rounds == [1]

    def test_accepts_edge_list(self):
        nodes = {v: Sender(v) for v in range(3)}
        nodes[2].sends = [(0, "x")]
        net = SynchronousNetwork([(0, 1), (1, 2), (0, 2)], nodes)
        net.run()
        assert nodes[0].recv_rounds == [1]

    def test_neighbors_sorted(self):
        net = SynchronousNetwork(
            complete_graph(4), {v: Sender(v) for v in range(4)}
        )
        assert net.neighbors(2) == (0, 1, 3)
        assert net.neighbor_set(0) == frozenset({1, 2, 3})
        assert net.node_ids == [0, 1, 2, 3]


class TestTraceSliceAndJson:
    """EventTrace windows and the JSON round-trip (resilience evidence)."""

    @staticmethod
    def _trace() -> EventTrace:
        from repro import run_central_counting
        from repro.topology import star_graph

        tr = EventTrace()
        run_central_counting(star_graph(8), range(8), trace=tr)
        return tr

    def test_slice_bounds_inclusive(self):
        tr = self._trace()
        window = tr.slice(2, 4)
        assert window.events
        assert all(2 <= e.round <= 4 for e in window.events)
        expected = [e for e in tr.events if 2 <= e.round <= 4]
        assert window.events == expected

    def test_slice_open_end(self):
        tr = self._trace()
        tail = tr.slice(3)
        assert tail.events == [e for e in tr.events if e.round >= 3]

    def test_slice_shares_frozen_events(self):
        tr = self._trace()
        window = tr.slice(0, tr.last_round())
        assert window.events == tr.events
        assert window.events[0] is tr.events[0]

    def test_json_roundtrip_restores_equality(self):
        tr = self._trace()
        back = EventTrace.from_json(tr.to_json())
        assert back.events == tr.events

    def test_json_roundtrip_preserves_tuples(self):
        from repro import path_spanning_tree, run_arrow
        from repro.topology import path_graph

        tr = EventTrace()
        run_arrow(path_spanning_tree(path_graph(6)), range(6), trace=tr)
        ops = [e.data["op"] for e in tr.of_kind("complete")]
        assert ops and all(isinstance(op, tuple) for op in ops)
        back = EventTrace.from_json(tr.to_json())
        assert [e.data["op"] for e in back.of_kind("complete")] == ops

    def test_json_roundtrip_nested_payloads(self):
        tr = EventTrace()
        tr.record("deliver", 3, src=0, dst=1,
                  payload=(("op", 2), [("op", 3), 4], {"k": (5, 6)}))
        back = EventTrace.from_json(tr.to_json())
        assert back.events == tr.events
        assert back.events[0].data["payload"][0] == ("op", 2)
