"""The three workloads: their inputs, one pass over them, and its checks.

A workload builds every input in :meth:`Workload.setup` (timed as
``setup_s``) and then runs one *pass* — the same fixed list of
executions every time — through a :class:`Recorder`, which times each
execution, verifies its output, compares the simulated
``(rounds, messages_sent, total_link_wait, total delay)`` of every
fault-free execution with the value recorded in ``reference.json``, and
counts every failure against the attempts.

Inputs come from the seed: ``seed % VARIANTS`` selects one of
``VARIANTS`` input variants, and every random draw of that variant is
made from a ``random.Random`` keyed by workload, variant and cell.
Reference values are recorded for every variant, so any seed is checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter as clock
from typing import Any, Callable

#: Input variants per workload; the seed picks one (``seed % VARIANTS``).
VARIANTS = 16

#: Per-execution sim tuple: rounds, messages sent, link wait, total delay.
Sim = tuple[int, int, int, int]


@dataclass
class Outcome:
    """One execution (or, in the suite check, one experiment cell)."""

    name: str
    seconds: float
    attempts: int = 1
    failures: int = 0
    ops: int = 0
    sim: Sim | None = None
    error: str | None = None
    wrong: bool = False


def _failure_types() -> tuple[type, ...]:
    from repro.core.verify import VerificationError
    from repro.sim.errors import SimulationError

    # SimulationError covers RoundLimitExceeded, StallDetected,
    # InvariantViolation and RetryBudgetExceeded; ArrowResult.order raises
    # ValueError on a broken predecessor chain.
    return (SimulationError, VerificationError, ValueError)


def _is_wrong_output(exc: BaseException) -> bool:
    from repro.core.verify import VerificationError
    from repro.sim.errors import InvariantViolation

    return isinstance(exc, (VerificationError, InvariantViolation, ValueError))


class Recorder:
    """Runs executions, checks them and keeps their outcomes.

    Args:
        reference: pin group -> recorded sim tuples in execution order,
            or ``None`` to record (``record`` then receives every observed
            tuple).
        tracer: when set, each execution runs inside a ``bench`` span so
            the benchmark's own bookkeeping is not billed to a layer.
    """

    def __init__(self, reference: dict[str, list[list[int]]] | None,
                 tracer: Any = None) -> None:
        self.reference = reference
        self.record: dict[str, list[list[int]]] = {}
        self.tracer = tracer
        self.outcomes: list[Outcome] = []
        self._failures = _failure_types()

    def execute(
        self, name: str, thunk: Callable[[], tuple[int, Sim]],
        pin: tuple[str, int] | None = None,
    ) -> Outcome:
        """Run ``thunk`` (returns ``(ops, sim)`` after verifying) once."""
        if self.tracer is not None:
            with self.tracer.span(name, "bench"):
                return self._execute(name, thunk, pin)
        return self._execute(name, thunk, pin)

    def _execute(
        self, name: str, thunk: Callable[[], tuple[int, Sim]], pin: tuple[str, int] | None
    ) -> Outcome:
        t0 = clock()
        try:
            ops, sim = thunk()
        except self._failures as exc:
            out = Outcome(name, clock() - t0, failures=1,
                          error=f"{type(exc).__name__}: {exc}",
                          wrong=_is_wrong_output(exc))
        else:
            out = Outcome(name, clock() - t0, ops=ops, sim=sim)
            if pin is not None:
                self.check_pin(out, pin)
        self.outcomes.append(out)
        return out

    def check_pin(self, out: Outcome, pin: tuple[str, int]) -> None:
        """Compare ``out.sim`` with entry ``index`` of reference ``group``."""
        group, index = pin
        if self.reference is None:
            rows = self.record.setdefault(group, [])
            if index != len(rows):
                raise ValueError(f"{group}: recorded out of order at {index}")
            rows.append(list(out.sim))
            return
        rows = self.reference.get(group, [])
        want = rows[index] if index < len(rows) else None
        if want is None or tuple(want) != out.sim:
            out.failures = 1
            out.wrong = True
            out.error = (f"sim (rounds, msgs, link_wait, delay) = {out.sim}, "
                         f"reference {tuple(want) if want else 'missing'}")

    def add(self, out: Outcome) -> None:
        self.outcomes.append(out)


# --------------------------------------------------------------- helpers


def _sample(rng: random.Random, n: int, frac: float) -> list[int]:
    return sorted(rng.sample(range(n), max(1, round(n * frac))))


def _counting(runner: str, target: Any, req: list[int]) -> Callable:
    def thunk() -> tuple[int, Sim]:
        # Resolved per call, so a traced pass reaches the wrapped runner.
        import repro.counting
        from repro.core.verify import verify_counting

        res = getattr(repro.counting, runner)(target, req)
        verify_counting(req, res.counts)
        s = res.stats
        return len(res.requests), (s.rounds, s.messages_sent, s.total_link_wait,
                                   res.total_delay)
    return thunk


def _queuing(spanning: Any, req: list[int]) -> Callable:
    def thunk() -> tuple[int, Sim]:
        from repro.arrow import run_arrow
        from repro.core.verify import verify_queuing

        res = run_arrow(spanning, req)
        verify_queuing(req, res.predecessors, res.tail)
        res.order()
        s = res.stats
        return len(res.requests), (s.rounds, s.messages_sent, s.total_link_wait,
                                   res.total_delay)
    return thunk


#: Fault-free counting runners by algorithm name.
COUNTING_RUNNERS = {
    "central": "run_central_counting",
    "combining": "run_combining_counting",
    "flood": "run_flood_counting",
    "cnet": "run_counting_network",
}


def _cell_thunk(algo: str, graph: Any, tree: Any, req: list[int]) -> Callable:
    """The fault-free execution of ``algo`` on ``graph`` (or its tree)."""
    if algo == "arrow":
        return _queuing(tree, req)
    return _counting(COUNTING_RUNNERS[algo], tree if algo == "combining" else graph, req)


def _build(topology: str, n: int, algo: str) -> tuple[Any, Any]:
    """(graph, spanning tree or None) for a named topology of ``n`` vertices.

    Only the tree protocols (arrow, combining) get a spanning tree.
    """
    import math

    from repro.topology import (
        bfs_spanning_tree,
        complete_graph,
        mesh_graph,
        path_graph,
        path_spanning_tree,
        ring_graph,
        star_graph,
    )

    if topology == "mesh":
        side = math.isqrt(n)
        graph = mesh_graph([side, n // side])
    else:
        graph = {"path": path_graph, "ring": ring_graph, "star": star_graph,
                 "complete": complete_graph}[topology](n)
    if not algo.startswith(("arrow", "combining")):
        return graph, None
    tree = path_spanning_tree(graph) if topology == "path" else bfs_spanning_tree(graph)
    return graph, tree


# ------------------------------------------------------------- workloads


class Workload:
    """One named workload; subclasses fill :meth:`setup` and :meth:`run_pass`."""

    name = ""
    why = ""

    def __init__(self, seed: int) -> None:
        self.variant = seed % VARIANTS

    def rng(self, cell: str) -> random.Random:
        return random.Random(f"{self.name}/{self.variant}/{cell}")

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self, rec: Recorder) -> None:
        """Checks made once per run after the timed passes (default none)."""


class PaperScale(Workload):
    """A few large fault-free executions, one per regime of the paper."""

    name = "paper-scale"
    why = ("five large fault-free executions, one per regime of the paper's bounds: "
           "the engine hot loop and protocol callbacks do almost all the work")

    #: (algorithm, topology, n): flood/path is the Theta(n^2) list regime
    #: (T3.6), central/star the hub receive contention of Section 5,
    #: arrow/path the O(n) queuing side.  Each execution takes 30-50 ms on
    #: a 2-vCPU Xeon guest: on a shared host only short executions, timed
    #: many times, have a fastest repetition that is the same run to run.
    CELLS = (
        ("flood", "path", 80),
        ("central", "star", 4096),
        ("combining", "mesh", 2304),
        ("arrow", "path", 2048),
        ("cnet", "complete", 48),
    )

    def setup(self) -> None:
        self.execs = []
        for algo, topology, n in self.CELLS:
            cell = f"{algo}/{topology}/{n}"
            graph, tree = _build(topology, n, algo)
            req = _sample(self.rng(cell), n, 0.5)
            self.execs.append((cell, _cell_thunk(algo, graph, tree, req)))

    def run_pass(self, rec: Recorder) -> None:
        for cell, thunk in self.execs:
            rec.execute(cell, thunk, pin=(f"{self.name}/v{self.variant}/{cell}", 0))


class AdversarySearch(Workload):
    """The paper's max-over-R workflow: many small executions."""

    name = "adversary-search"
    why = ("adversarial_search plus exhaustive request sets at tiny n: thousands of "
           "small executions, so per-execution set-up, routing and verification dominate; "
           "then one untimed run_suite check")

    #: Search cells: (algorithm, topology, n).
    SEARCH = (
        ("arrow", "path", 48), ("arrow", "mesh", 36),
        ("central", "star", 32), ("central", "ring", 24),
        ("combining", "mesh", 36), ("combining", "complete", 32),
        ("flood", "ring", 16), ("flood", "path", 12),
        ("cnet", "complete", 16), ("cnet", "ring", 16),
    )
    #: Exhaustive cells: every non-empty request set of ``{0..n-1}``.
    EXHAUSTIVE = (
        ("arrow", "ring", 6), ("central", "star", 6),
        ("flood", "path", 6), ("cnet", "complete", 6),
    )
    #: Independent searches per cell, each from its own seeded start sets
    #: (one per density): many short climbs keep the work of a pass
    #: nearly the same whatever the seed.
    SEARCHES_PER_CELL = 3
    START_DENSITIES = (0.25, 0.5, 0.75)
    MAX_EVALUATIONS = 15

    def setup(self) -> None:
        from repro.core.request import exhaustive_request_sets

        self.searches = []
        for algo, topology, n in self.SEARCH:
            graph, tree = _build(topology, n, algo)
            rng = self.rng(f"{algo}/{topology}/{n}")
            # At most len(starts) + n - 1 evaluations: the climb cannot
            # finish a full non-improving sweep first, so every search
            # spends exactly this budget whatever the seed.
            budget = min(self.MAX_EVALUATIONS, len(self.START_DENSITIES) + n - 1)
            for k in range(self.SEARCHES_PER_CELL):
                starts = [_sample(rng, n, d) for d in self.START_DENSITIES]
                self.searches.append(
                    (f"{algo}/{topology}/{n}/s{k}", algo, graph, tree, starts, budget))
        self.exhaustive = []
        for algo, topology, n in self.EXHAUSTIVE:
            graph, tree = _build(topology, n, algo)
            self.exhaustive.append(
                (f"{algo}/{topology}/{n}", algo, graph, tree, exhaustive_request_sets(n))
            )

    def run_pass(self, rec: Recorder) -> None:
        from repro.core.adversary import adversarial_search

        for cell, algo, graph, tree, starts, budget in self.searches:
            index = 0

            def cost(req: list[int]) -> int:
                nonlocal index
                out = rec.execute(f"{cell}/eval{index}", _cell_thunk(algo, graph, tree, req),
                                  pin=(f"{self.name}/v{self.variant}/{cell}", index))
                index += 1
                return out.sim[3] if out.sim is not None else -1

            adversarial_search(graph, cost, seeds=starts, max_evaluations=budget)
        for cell, algo, graph, tree, sets in self.exhaustive:
            for index, req in enumerate(sets):
                rec.execute(f"{cell}/{''.join(map(str, req))}",
                            _cell_thunk(algo, graph, tree, req),
                            pin=(f"{self.name}/{cell}", index))

    def finish(self, rec: Recorder) -> None:
        """The experiment suite, once per run and untimed (see :func:`check_suite`)."""
        check_suite(rec)


class ChaosObserved(Workload):
    """Fault-tolerant runners under seeded plans with every observer on."""

    name = "chaos-observed"
    why = ("run_*_ft under seeded eventually-delivering plans and empty plans with "
           "monitors, watchdog, metrics and event trace: where the faults, obs and "
           "resilience layers do their work")

    #: (protocol, topologies, n) per fault-tolerant runner.
    CELLS = (
        ("arrow_ft", ("path", "ring", "star", "complete"), 32),
        ("central_ft", ("path", "ring", "star", "complete"), 16),
        ("flood_ft", ("path", "ring", "star", "complete"), 10),
    )
    #: Enough plans that the run holds over 100 distinct executions.
    PLANS_PER_CELL = 8
    #: The drop rates ``random_plan`` draws from.  Every cell gets the same
    #: number of plans at each rate, so any seed loads the cells alike.
    DROP_RATES = (0.0, 0.1, 0.2, 0.3)
    #: The contended cell the ROADMAP names: the hub's reply queue outlasts
    #: the fixed retry schedule, so it fails with no fault injected.
    CONTENDED = ("central_ft", "star", 256)
    MAX_ROUNDS = 20_000

    def setup(self) -> None:
        from repro.faults import FaultPlan
        from repro.resilience.chaos import ChaosCell

        self.execs = []
        for protocol, topologies, n in self.CELLS:
            for topology in topologies:
                cell = f"{protocol}/{topology}/{n}"
                graph, tree = _build(topology, n, protocol)
                drawn = self._plans(self.rng(cell), ChaosCell(protocol, topology, n))
                plans = [("empty", FaultPlan())] + [
                    (f"plan{i}", plan) for i, plan in enumerate(drawn)
                ]
                for label, plan in plans:
                    self.execs.append((f"{cell}/{label}", protocol, graph, tree, plan))
        protocol, topology, n = self.CONTENDED
        graph, tree = _build(topology, n, protocol)
        self.execs.append((f"{protocol}/{topology}/{n}/empty", protocol, graph, tree,
                           FaultPlan()))

    def _plans(self, rng: random.Random, cell: Any) -> list[Any]:
        """Seeded ``random_plan`` draws, stratified by drop rate."""
        from repro.resilience.chaos import random_plan

        want = dict.fromkeys(self.DROP_RATES, self.PLANS_PER_CELL // len(self.DROP_RATES))
        plans = []
        for _ in range(100 * self.PLANS_PER_CELL):
            plan = random_plan(rng, cell)
            if want.get(plan.drop_rate, 0) > 0:
                want[plan.drop_rate] -= 1
                plans.append(plan)
                if len(plans) == self.PLANS_PER_CELL:
                    return plans
        raise RuntimeError(f"random_plan did not cover drop rates {self.DROP_RATES}")

    def run_pass(self, rec: Recorder) -> None:
        for name, protocol, graph, tree, plan in self.execs:
            rec.execute(name, self._thunk(protocol, graph, tree, plan))

    def _thunk(self, protocol: str, graph: Any, tree: Any, plan: Any) -> Callable:
        def thunk() -> tuple[int, Sim]:
            from repro.core.verify import verify_counting, verify_queuing
            from repro.faults import run_arrow_ft, run_central_counting_ft, run_flood_counting_ft
            from repro.obs import MetricsRegistry
            from repro.resilience import ArrowInvariant, CountingInvariant, MonitorSet, Watchdog
            from repro.sim import EventTrace

            n = graph.n
            req = list(range(n))
            metrics = MetricsRegistry()
            invariant = ArrowInvariant() if protocol == "arrow_ft" else CountingInvariant(expected=n)
            monitors = MonitorSet(
                invariants=(invariant,),
                watchdog=Watchdog(stall_window=500, livelock_window=5_000,
                                  expected_completions=n),
                metrics=metrics,
            )
            kw = dict(max_rounds=self.MAX_ROUNDS, metrics=metrics, trace=EventTrace(),
                      monitors=monitors)
            if protocol == "arrow_ft":
                res = run_arrow_ft(tree, req, plan, **kw)
                verify_queuing(req, res.predecessors, res.tail)
                res.order()
            else:
                runner = (run_central_counting_ft if protocol == "central_ft"
                          else run_flood_counting_ft)
                res = runner(graph, req, plan, **kw)
                verify_counting(req, res.counts)
            s = res.stats
            return n, (s.rounds, s.messages_sent, s.total_link_wait, res.total_delay)
        return thunk


def check_suite(rec: Recorder) -> None:
    """``repro run all --scale bench`` once, untimed: every check must pass.

    Per experiment it adds one outcome whose attempts are the
    experiment's checks, and one failed attempt when the sim tuple summed
    over its fault-free networks differs from ``reference.json`` (group
    ``suite/<id>``).
    """
    from repro.experiments.executor import run_suite
    from repro.experiments.suite import ALL_EXPERIMENTS

    from layers import network_tally

    ids = list(ALL_EXPERIMENTS)
    t0 = clock()
    try:
        with network_tally() as tally:
            runs = run_suite(ids, scale="bench", jobs=1)
    except _failure_types() as exc:
        rec.add(Outcome("suite", clock() - t0, failures=1, wrong=True,
                        error=f"{type(exc).__name__}: {exc}"))
        return
    for result, elapsed in runs:
        bad = result.failed_checks()
        rec.add(Outcome(
            result.exp_id, elapsed, attempts=len(result.checks), failures=len(bad),
            wrong=bool(bad), error="; ".join(str(c) for c in bad) or None,
        ))
    for exp_id in ids:
        if exp_id not in tally:
            continue
        rounds, msgs, wait, delay, ops = tally[exp_id]
        out = Outcome(f"suite/{exp_id}", 0.0, attempts=0, ops=ops,
                      sim=(rounds, msgs, wait, delay))
        rec.check_pin(out, (f"suite/{exp_id}", 0))
        if out.failures:
            out.attempts = 1
        rec.add(out)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PaperScale, AdversarySearch, ChaosObserved)
}
