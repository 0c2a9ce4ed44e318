"""The synchronous round-based execution engine.

The engine implements the model of Section 2.1 of the paper exactly:

* unit link delay: a message sent in round ``t`` is receivable from round
  ``t + 1`` on;
* per-round send capacity: each node moves at most ``send_capacity``
  messages from its outbox onto links per round (excess messages wait in
  FIFO order — *send contention*);
* per-round receive capacity: each node processes at most
  ``recv_capacity`` messages per round, in deterministic
  ``(sent_at, creation seq)`` order across its incoming links, with FIFO
  order preserved per link (excess messages wait on the link — *receive
  contention*);
* all remaining computation is local and free.

The engine is event-driven within the round structure: per round it only
touches nodes that have something to receive or send, so the total work is
proportional to the total number of message-rounds, not ``rounds x n``.
This matters because the paper's contention bounds make some protocols run
for Theta(n^2) rounds.

Vertex ids must be the contiguous range ``0..n-1`` (true for every
``repro.topology`` generator); any other id set is rejected at
construction.  That lets every piece of per-node state live in a flat
list indexed by vertex id: outboxes, incoming-link queues, ready heaps,
and the incrementally maintained sets of nodes with something to send
or receive.  Idle stretches are skipped with a next-event heap over
wakeup rounds.  ``docs/PERFORMANCE.md`` describes the data
structures; the golden-trace suite pins the executions they produce.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from repro.sim.delays import ConstantDelay, DelayModel
from repro.sim.errors import (
    CapacityError,
    ProtocolViolation,
    RoundLimitExceeded,
    StrictModeViolation,
)
from repro.sim.message import Message
from repro.sim.metrics import DelayRecorder
from repro.sim.node import Node, NodeContext
from repro.sim.trace import EventTrace

@dataclass(slots=True)
class RunStats:
    """Aggregate accounting for one simulation run.

    Attributes:
        rounds: number of rounds executed until quiescence (the round in
            which the last message was delivered).
        messages_sent: messages that entered a link.
        messages_delivered: messages processed by a receiver.
        max_send_backlog: largest outbox length observed.
        max_recv_backlog: largest single-link queue length observed.
        total_link_wait: sum over delivered messages of the rounds they
            waited at the receiver beyond the unit link delay — the total
            receive contention in the run.
        messages_dropped: messages lost at link entry by an injected
            fault (random loss or link outage); zero without a fault plan.
        messages_duplicated: extra copies injected onto links by a fault
            plan; each copy also counts in ``messages_sent`` once it is
            on the link.
        node_crashes: crash windows entered during the run.
    """

    rounds: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    max_send_backlog: int = 0
    max_recv_backlog: int = 0
    total_link_wait: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    node_crashes: int = 0


def _as_adjacency(graph: Any) -> dict[int, tuple[int, ...]]:
    """Normalize a graph-like input to a sorted adjacency dict.

    Accepts a :class:`repro.topology.Graph` (anything with an ``adj``
    mapping), a plain mapping ``{node: neighbors}``, or an iterable of
    edges ``(u, v)``.
    """
    if hasattr(graph, "adj"):
        raw: Mapping[int, Sequence[int]] = graph.adj
        return {v: tuple(sorted(raw[v])) for v in raw}
    if isinstance(graph, Mapping):
        return {v: tuple(sorted(graph[v])) for v in graph}
    adj: dict[int, set[int]] = {}
    for u, v in graph:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}


class SynchronousNetwork:
    """A synchronous message-passing network over a fixed graph.

    Args:
        graph: the communication graph (see :func:`_as_adjacency` for the
            accepted forms); its vertex ids must be exactly ``0..n-1``.
        nodes: mapping from node id to the :class:`Node` protocol object
            for that id; must cover every vertex of the graph and contain
            no entries for vertices outside it.
        send_capacity: messages a node may send per round (paper: 1).
        recv_capacity: messages a node may receive per round (paper: 1;
            the arrow protocol uses the spanning-tree degree, the paper's
            "expanded time step" convention).
        delay_model: callable ``(msg) -> int`` giving each message's link
            delay; defaults to the paper's synchronous unit delay.  See
            :mod:`repro.sim.delays` for the asynchronous extensions.
        trace: optional :class:`EventTrace` to record engine events into.
        metrics: optional :class:`repro.obs.MetricsRegistry` (duck-typed:
            anything with ``inc``/``set_gauge``/``observe``/``sample``).
            When attached, the engine publishes message counters, per-op
            completion-delay and link-wait histograms, and per-round
            in-flight/backlog gauges; when ``None`` (the default) every
            instrumented call site reduces to one ``is not None`` check,
            so the run is unobserved at zero cost.  ``RunStats`` stays
            the always-on thin aggregate view; an attached registry
            reproduces it exactly (``metrics.run_stats_view()``).
        profiler: optional :class:`repro.obs.PhaseProfiler` (duck-typed:
            ``clock``/``add``/``tick_round``).  Times the engine phases
            (send drain, delivery, wakeups, fault ticks, and the nested
            protocol ``on_receive`` compute) per executed round.  Pure
            observation: a profiled run is event-for-event identical to
            an unprofiled one.
        strict: when true, exceeding a per-round send or receive budget
            raises :class:`StrictModeViolation` instead of queuing the
            excess.  Opt-in: contention-by-design protocols (the paper's
            main subject) must leave this off.
        faults: optional :class:`repro.faults.FaultPlan` describing
            message drops, duplications, link outages, and node crashes
            to inject (see :mod:`repro.faults`).  An empty plan (or
            ``None``) leaves every code path untouched, so the run is
            byte-for-byte identical to a fault-free one.
        monitors: optional :class:`repro.resilience.MonitorSet`
            (duck-typed: ``on_round``/``on_complete``/``on_finish``).
            Runs end-of-round invariant checks, watchdog progress
            tracking, and periodic checkpoints against the live network.
            Pure observation unless an invariant breaks (then a
            structured :class:`~repro.sim.errors.InvariantViolation` or
            :class:`~repro.sim.errors.StallDetected` is raised); when
            ``None`` (the default) each hook site is one ``is not None``
            check, and traces stay byte-identical.

    Typical use::

        net = SynchronousNetwork(graph, nodes)
        stats = net.run(max_rounds=10_000)
        delays = net.delays.delay_by_op()
    """

    def __init__(
        self,
        graph: Any,
        nodes: Mapping[int, Node],
        *,
        send_capacity: int = 1,
        recv_capacity: int = 1,
        delay_model: DelayModel | None = None,
        trace: EventTrace | None = None,
        metrics: Any | None = None,
        profiler: Any | None = None,
        strict: bool = False,
        faults: Any | None = None,
        monitors: Any | None = None,
    ) -> None:
        if send_capacity < 1:
            raise CapacityError(f"send_capacity must be >= 1, got {send_capacity}")
        if recv_capacity < 1:
            raise CapacityError(f"recv_capacity must be >= 1, got {recv_capacity}")
        self._adj = _as_adjacency(graph)
        n = len(self._adj)
        # Keys are unique, so n ids inside [0, n) are exactly 0..n-1.
        bad = [v for v in self._adj if not (isinstance(v, int) and 0 <= v < n)]
        if bad:
            raise ProtocolViolation(
                f"vertex ids must be 0..n-1 (n={n}); offending ids: {bad[:5]}"
            )
        missing = set(self._adj) - set(nodes)
        if missing:
            raise ProtocolViolation(f"no Node object for vertices {sorted(missing)[:5]}...")
        extra = set(nodes) - set(self._adj)
        if extra:
            raise ProtocolViolation(
                f"Node objects for vertices not in the graph: {sorted(extra)[:5]}"
            )
        self._nodes: list[Node] = [nodes[v] for v in range(n)]
        self._nbr_sets = {v: frozenset(nbrs) for v, nbrs in self._adj.items()}
        self.send_capacity = send_capacity
        self.recv_capacity = recv_capacity
        self.delay_model = delay_model if delay_model is not None else ConstantDelay(1)
        self.now = 0
        self.delays = DelayRecorder()
        self.stats = RunStats()
        self.trace = trace
        # Observability hooks (see repro.obs).  Both are duck-typed so the
        # engine never imports the obs package; None disables publishing.
        self.metrics = metrics
        self.profiler = profiler
        # Resilience hook (see repro.resilience).  Duck-typed like the
        # obs hooks; None disables all end-of-round checking.
        self.monitors = monitors
        self.strict = strict
        # Runtime fault state, or None for fault-free runs.  Duck-typed
        # (see repro.faults.injector.FaultInjector) so the engine never
        # imports the faults package.
        self._injector = faults.injector() if faults is not None else None
        # Strict-mode send accounting: node -> (round, sends so far).
        self._send_budget: dict[int, tuple[int, int]] = {}
        self._unit_delay = (
            type(self.delay_model) is ConstantDelay and self.delay_model.delay == 1
        )

        #: per node: FIFO outbox of messages not yet on a link.
        self._outboxes: list[deque[Message]] = [deque() for _ in range(n)]
        #: per destination: incoming-link FIFO queues keyed by source.
        self._in_links: list[dict[int, deque[Message]]] = [{} for _ in range(n)]
        #: per node: heap of (ready_at, seq, src) over its incoming link
        #: heads.  Only heads are in the heap, so arbitration is
        #: O(log deg) per delivery even on the star's hub.  A promoted head
        #: is never receivable before the round after its predecessor
        #: (per-link throughput is one message per round).
        self._rheaps: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        # Maintained active sets: node is listed exactly once while its
        # outbox / ready heap is non-empty (flag == membership).
        self._send_active: list[int] = []
        self._send_flag = bytearray(n)
        self._recv_active: list[int] = []
        self._recv_flag = bytearray(n)
        #: messages sitting in outboxes (not yet on a link).
        self._outbox_pending = 0
        self._ctx: list[NodeContext] = [NodeContext(self, v) for v in range(n)]
        self._msg_seq = 0
        self._in_flight = 0
        self._started = False
        self._wakeups: dict[int, list[int]] = {}
        #: Next-event heap over wakeup rounds.  Contains every
        #: round that currently has (or once had) scheduled wakeups; rounds
        #: no longer in ``_wakeups`` are discarded lazily on peek.  This
        #: replaces the former ``min(self._wakeups)`` linear scans.
        self._wake_heap: list[int] = []
        #: Rounds the run loop actually iterated (idle stretches that the
        #: clock jumped over are not counted).  ``stats.rounds`` stays the
        #: model-level clock; this is the engine-level work measure.
        self.rounds_executed = 0

    # ---------------------------------------------------------------- API

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of ``v``."""
        return self._adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        """Neighbors of ``v`` as a frozenset (for membership tests)."""
        return self._nbr_sets[v]

    @property
    def node_ids(self) -> list[int]:
        """All vertex ids, sorted."""
        return list(range(len(self._nodes)))

    def node(self, v: int) -> Node:
        """The protocol object at vertex ``v``."""
        return self._nodes[v]

    def context(self, v: int) -> NodeContext:
        """The :class:`NodeContext` bound to vertex ``v``."""
        return self._ctx[v]

    def run(self, max_rounds: int = 1_000_000) -> RunStats:
        """Execute the protocol to quiescence and return run statistics.

        Round 0 calls every node's ``on_start`` (in node-id order) and
        flushes outboxes once; rounds 1, 2, ... alternate the receive and
        send phases until no message remains in any link or outbox.

        Raises:
            RoundLimitExceeded: if quiescence is not reached within
                ``max_rounds`` rounds.
            ProtocolViolation: if :meth:`run` is called twice.
        """
        if self._started:
            raise ProtocolViolation("a SynchronousNetwork can only be run once")
        self._started = True

        self.now = 0
        inj = self._injector
        met = self.metrics
        prof = self.profiler
        mon = self.monitors
        t_run = prof.clock() if prof is not None else 0.0
        if inj is not None:
            inj.tick(0, self.stats, self.trace, met)
        if prof is None:
            for node, ctx in zip(self._nodes, self._ctx):
                node.on_start(ctx)
        else:
            t0 = prof.clock()
            for node, ctx in zip(self._nodes, self._ctx):
                node.on_start(ctx)
            prof.add("node.on_start", prof.clock() - t0)
        if prof is None:
            self._send_phase()
        else:
            t0 = prof.clock()
            self._send_phase()
            prof.add("send", prof.clock() - t0)
        if mon is not None:
            if prof is None:
                mon.on_round(self)
            else:
                t0 = prof.clock()
                mon.on_round(self)
                prof.add("monitors", prof.clock() - t0)

        return self._loop(max_rounds, t_run)

    def resume(self, max_rounds: int = 1_000_000) -> RunStats:
        """Continue a started network to quiescence.

        The checkpoint/restore workflow: a network deepcopied mid-run by
        :class:`repro.resilience.Checkpoint` re-enters the round loop
        here and finishes byte-identically to the original — same trace
        events, same stats, same completion order.  ``max_rounds`` is the
        same *absolute* round budget :meth:`run` takes.

        Raises:
            ProtocolViolation: if the network was never started (call
                :meth:`run` instead).
        """
        if not self._started:
            raise ProtocolViolation(
                "resume() on a network that was never run; call run() first"
            )
        prof = self.profiler
        t_run = prof.clock() if prof is not None else 0.0
        return self._loop(max_rounds, t_run)

    def _loop(self, max_rounds: int, t_run: float = 0.0) -> RunStats:
        """The round loop: rounds ``now+1 ...`` until quiescence."""
        receive_phase = self._receive_phase
        send_phase = self._send_phase
        # Under the paper's unit delay every link head is receivable by
        # round now+1, so while messages are in flight the clock can never
        # jump: skip the idle-round scan entirely.
        jump = not self._unit_delay
        inj = self._injector
        met = self.metrics
        prof = self.profiler
        mon = self.monitors

        executed = self.rounds_executed
        while self._in_flight > 0 or self._wakeups:
            self.now += 1
            executed += 1
            if self.now > max_rounds:
                self.rounds_executed = executed
                raise RoundLimitExceeded(
                    max_rounds,
                    self._in_flight,
                    pending_nodes=self._pending_nodes(),
                    oldest=self._oldest_undelivered(),
                )
            if prof is None:
                if inj is not None:
                    inj.tick(self.now, self.stats, self.trace, met)
                self._wake_phase()
                receive_phase()
                send_phase()
            else:
                prof.tick_round()
                t0 = prof.clock()
                if inj is not None:
                    inj.tick(self.now, self.stats, self.trace, met)
                    t1 = prof.clock()
                    prof.add("faults.tick", t1 - t0)
                    t0 = t1
                self._wake_phase()
                t1 = prof.clock()
                prof.add("wake", t1 - t0)
                receive_phase()
                t0 = prof.clock()
                prof.add("receive", t0 - t1)
                send_phase()
                prof.add("send", prof.clock() - t0)
            if met is not None:
                met.set_gauge("engine.in_flight", self._in_flight)
                met.sample("engine.in_flight", self.now, self._in_flight)
            if mon is not None:
                # Sync the executed-round counter so monitors (and any
                # checkpoint they capture) see a consistent engine.
                self.rounds_executed = executed
                if prof is None:
                    mon.on_round(self)
                else:
                    t0 = prof.clock()
                    mon.on_round(self)
                    prof.add("monitors", prof.clock() - t0)
            if jump:
                self._maybe_jump(max_rounds)

        self.rounds_executed = executed
        self.stats.rounds = self.now
        if met is not None:
            met.set_gauge("engine.rounds", self.now)
        if mon is not None:
            mon.on_finish(self)
        if prof is not None:
            prof.wall += prof.clock() - t_run
        return self.stats

    def _pending_nodes(self) -> tuple[int, ...]:
        """Nodes with unsent outbound or undelivered inbound messages."""
        pending = {u for u, box in enumerate(self._outboxes) if box}
        for dst, links in enumerate(self._in_links):
            if any(links.values()):
                pending.add(dst)
        return tuple(sorted(pending))

    def _queued_messages(self) -> tuple[Iterator[deque[Message]], Iterator[deque[Message]]]:
        """(link queues, outboxes) iterators for diagnostics."""
        return (
            (q for links in self._in_links for q in links.values()),
            iter(self._outboxes),
        )

    def _oldest_undelivered(self) -> tuple[str, int, int, int] | None:
        """``(kind, src, dst, sent_at)`` of the oldest queued message."""
        links, outboxes = self._queued_messages()
        oldest: Message | None = None
        for q in links:
            for m in q:
                if oldest is None or (m.sent_at, m.seq) < (oldest.sent_at, oldest.seq):
                    oldest = m
        if oldest is None:
            for box in outboxes:
                for m in box:
                    if oldest is None or m.seq < oldest.seq:
                        oldest = m
        if oldest is None:
            return None
        return (oldest.kind, oldest.src, oldest.dst, oldest.sent_at)

    # ------------------------------------------------------------ engine

    def _enqueue_send(self, src: int, dst: int, kind: str, payload: Any) -> Message:
        if self.strict:
            last_round, count = self._send_budget.get(src, (-1, 0))
            count = count + 1 if last_round == self.now else 1
            self._send_budget[src] = (self.now, count)
            if count > self.send_capacity:
                raise StrictModeViolation(src, self.now, "send", self.send_capacity)
        seq = self._msg_seq
        self._msg_seq = seq + 1
        msg = Message(src, dst, kind, payload, -1, -1, -1, seq)
        box = self._outboxes[src]
        box.append(msg)
        self._outbox_pending += 1
        if not self._send_flag[src]:
            self._send_flag[src] = 1
            self._send_active.append(src)
        self._in_flight += 1
        stats = self.stats
        backlog = len(box)
        if backlog > stats.max_send_backlog:
            stats.max_send_backlog = backlog
        if self.metrics is not None:
            self.metrics.set_gauge("engine.send_backlog", backlog)
        if self.trace is not None:
            self.trace.record("enqueue", self.now, src=src, dst=dst, kind=kind)
        return msg

    def _schedule_wakeup(self, node_id: int, round_: int) -> None:
        if round_ <= self.now:
            raise ProtocolViolation(
                f"wakeup for node {node_id} at round {round_} is not in the "
                f"future (now={self.now})"
            )
        due = self._wakeups.get(round_)
        if due is None:
            self._wakeups[round_] = [node_id]
            heapq.heappush(self._wake_heap, round_)
        else:
            due.append(node_id)

    def _next_wakeup(self) -> int | None:
        """The earliest round with scheduled wakeups, via the event heap.

        Lazily discards heap entries whose round has already fired (the
        ``_wakeups`` key was popped).  O(log w) amortised, replacing the
        O(w) ``min()`` scans over the wakeup dict.
        """
        heap = self._wake_heap
        wakeups = self._wakeups
        while heap:
            r = heap[0]
            if r in wakeups:
                return r
            heapq.heappop(heap)
        return None

    def _wake_phase(self) -> None:
        due = self._wakeups.pop(self.now, None)
        if not due:
            # If nothing is in flight, jump the clock to the next wakeup so
            # idle stretches of a long-lived schedule cost no work.
            if self._in_flight == 0 and self._wakeups:
                nxt = self._next_wakeup()
                if nxt is not None and nxt > self.now:
                    self.now = nxt
                    due = self._wakeups.pop(nxt)
            if not due:
                return
        inj = self._injector
        for v in sorted(set(due)):
            if inj is not None and inj.crashed(v, self.now):
                # Crashed nodes do not act; their wakeups fire at recovery
                # (and are dropped for a permanent crash).
                rec = inj.recovery_round(v, self.now)
                if rec is not None:
                    deferred = self._wakeups.get(rec)
                    if deferred is None:
                        self._wakeups[rec] = [v]
                        heapq.heappush(self._wake_heap, rec)
                    else:
                        deferred.append(v)
                continue
            self._nodes[v].on_wake(self._ctx[v])

    def _maybe_jump(self, max_rounds: int) -> None:
        """Skip idle rounds: with long link delays nothing may be
        receivable for a while; advance the clock to the next event.

        Only reachable with non-unit delays.  The active receiver set
        holds exactly the nodes with a non-empty ready heap, so the scan
        is O(active), not O(n)."""
        if self._in_flight == 0:
            return
        if self._outbox_pending:
            return  # something enters a link next round
        nxt = None
        rheaps = self._rheaps
        for v in self._recv_active:
            h = rheaps[v]
            if h and (nxt is None or h[0][0] < nxt):
                nxt = h[0][0]
        if self._wakeups:
            w = self._next_wakeup()
            if w is not None:
                nxt = w if nxt is None else min(nxt, w)
        if nxt is not None and nxt > self.now + 1:
            self.now = min(nxt - 1, max_rounds)

    def _record_completion(self, op_id: Any, result: Any, node_id: int) -> None:
        self.delays.record(op_id, self.now, result=result, at_node=node_id)
        if self.metrics is not None:
            self.metrics.inc("engine.completions")
            self.metrics.observe("op.delay", self.now)
        if self.trace is not None:
            self.trace.record("complete", self.now, node=node_id, op=op_id)
        if self.monitors is not None:
            self.monitors.on_complete(self, op_id, result, node_id)

    # ------------------------------------------------------------ phases

    def _receive_phase(self) -> None:
        active = self._recv_active
        if not active:
            return
        t = self.now
        inj = self._injector
        met = self.metrics
        prof = self.profiler
        trace = self.trace
        strict = self.strict
        cap = self.recv_capacity
        heappop = heapq.heappop
        heappush = heapq.heappush
        nodes = self._nodes
        ctxs = self._ctx
        in_links = self._in_links
        rheaps = self._rheaps
        flags = self._recv_flag
        order = sorted(active)
        active.clear()
        delivered = 0
        wait_total = 0
        for v in order:
            flags[v] = 0
            heap = rheaps[v]
            if inj is not None and inj.crashed(v, t):
                # Crashed receiver: messages wait on their links.
                if heap:
                    flags[v] = 1
                    active.append(v)
                continue
            node = nodes[v]
            ctx = ctxs[v]
            links_v = in_links[v]
            budget = cap
            while budget and heap:
                head = heap[0]
                if head[0] > t:
                    break  # still traversing its link
                heappop(heap)
                src = head[2]
                q = links_v[src]
                msg = q.popleft()
                if q:
                    nxt = q[0]
                    ra = nxt.ready_at
                    if ra <= t:
                        ra = t + 1
                    heappush(heap, (ra, nxt.seq, src))
                msg.delivered_at = t
                budget -= 1
                delivered += 1
                wait = t - msg.ready_at
                wait_total += wait
                if met is not None:
                    met.inc("engine.messages_delivered")
                    met.inc("engine.link_wait_total", wait)
                    met.observe("msg.link_wait", wait)
                if trace is not None:
                    trace.record("deliver", t, src=src, dst=v, kind=msg.kind, wait=wait)
                if prof is None:
                    node.on_receive(msg, ctx)
                else:
                    t0 = prof.clock()
                    node.on_receive(msg, ctx)
                    prof.add("node.on_receive", prof.clock() - t0)
            if heap:
                if strict and heap[0][0] <= t:
                    raise StrictModeViolation(v, t, "receive", cap)
                flags[v] = 1
                active.append(v)
        self._in_flight -= delivered
        self.stats.messages_delivered += delivered
        self.stats.total_link_wait += wait_total

    def _send_phase(self) -> None:
        active = self._send_active
        if not active:
            return
        t = self.now
        inj = self._injector
        met = self.metrics
        trace = self.trace
        cap = self.send_capacity
        unit = self._unit_delay
        delay_model = self.delay_model
        outboxes = self._outboxes
        in_links = self._in_links
        rheaps = self._rheaps
        recv_active = self._recv_active
        recv_flag = self._recv_flag
        heappush = heapq.heappush
        flags = self._send_flag
        stats = self.stats
        order = sorted(active)
        active.clear()
        sent = 0
        moved = 0
        max_backlog = stats.max_recv_backlog
        for u in order:
            flags[u] = 0
            box = outboxes[u]
            if inj is not None and inj.crashed(u, t):
                # Crashed sender: outbox frozen until recovery.
                flags[u] = 1
                active.append(u)
                continue
            for _ in range(cap if cap < len(box) else len(box)):
                msg = box.popleft()
                moved += 1
                msg.sent_at = t
                clone = None
                if inj is not None:
                    verdict = inj.on_link_entry(msg, t)
                    if verdict in ("drop", "outage"):
                        # Lost on the wire: the send slot is consumed but
                        # the message never enters the link.
                        self._in_flight -= 1
                        stats.messages_dropped += 1
                        if met is not None:
                            met.inc("engine.messages_dropped")
                        if trace is not None:
                            trace.record(
                                "drop", t, src=u, dst=msg.dst, kind=msg.kind,
                                reason=verdict,
                            )
                        continue
                    if verdict == "duplicate":
                        # A fresh copy follows the original onto the same
                        # link in the same round.
                        clone = Message(
                            src=msg.src, dst=msg.dst, kind=msg.kind,
                            payload=msg.payload, seq=self._msg_seq,
                        )
                        self._msg_seq += 1
                        clone.sent_at = t
                        self._in_flight += 1
                        stats.messages_duplicated += 1
                        if met is not None:
                            met.inc("engine.messages_duplicated")
                dst = msg.dst
                links_d = in_links[dst]
                # Link entry, for the message and then for its injected
                # copy (if any): join the FIFO queue on link (u, dst).
                m = msg
                while True:
                    m.ready_at = t + 1 if unit else t + delay_model(m)
                    q = links_d.get(u)
                    if q is None:
                        q = links_d[u] = deque()
                    q.append(m)
                    lq = len(q)
                    if lq > max_backlog:
                        max_backlog = lq
                    if lq == 1:
                        heappush(rheaps[dst], (m.ready_at, m.seq, u))
                        if not recv_flag[dst]:
                            recv_flag[dst] = 1
                            recv_active.append(dst)
                    sent += 1
                    if met is not None:
                        met.inc("engine.messages_sent")
                        met.set_gauge("engine.recv_backlog", lq)
                    if trace is not None:
                        trace.record("send", t, src=u, dst=dst, kind=m.kind)
                    if clone is None or m is clone:
                        break
                    m = clone
                if clone is not None and trace is not None:
                    trace.record("duplicate", t, src=u, dst=dst, kind=msg.kind)
            if box:
                flags[u] = 1
                active.append(u)
        stats.max_recv_backlog = max_backlog
        stats.messages_sent += sent
        self._outbox_pending -= moved


def run_protocol(
    graph: Any,
    nodes: Mapping[int, Node],
    *,
    send_capacity: int = 1,
    recv_capacity: int = 1,
    max_rounds: int = 1_000_000,
    trace: EventTrace | None = None,
    metrics: Any | None = None,
    profiler: Any | None = None,
    strict: bool = False,
) -> SynchronousNetwork:
    """Convenience wrapper: build a network, run it, return it.

    The returned network exposes ``delays`` (per-operation completion
    rounds) and ``stats`` (aggregate accounting).
    """
    net = SynchronousNetwork(
        graph,
        nodes,
        send_capacity=send_capacity,
        recv_capacity=recv_capacity,
        trace=trace,
        metrics=metrics,
        profiler=profiler,
        strict=strict,
    )
    net.run(max_rounds=max_rounds)
    return net
