"""Golden-trace regression tests.

Every protocol runs on a fixed small instance with tracing on; the full
event trace, engine stats, and protocol outputs are compared against a
canonical JSON fixture under ``tests/golden/``.  Any change to engine
scheduling, arbitration order, message routing, or protocol logic — no
matter how subtle — shows up here as a diff against the golden file.

Regenerate the fixtures (after an *intentional* semantics change) with::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --regen

and review the resulting diff like any other code change.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

import pytest

from repro import (
    bfs_spanning_tree,
    complete_graph,
    mesh_graph,
    path_graph,
    path_spanning_tree,
    ring_graph,
    run_arrow,
    run_central_counting,
    run_central_queuing,
    run_combining_counting,
    run_counting_network,
    run_flood_counting,
    run_periodic_counting,
    star_graph,
)
from repro.counting import run_sweep_counting
from repro.faults import (
    FaultPlan,
    LinkOutage,
    NodeCrash,
    RetryBudgetExceeded,
    RetryPolicy,
    run_central_counting_ft,
    run_flood_counting_ft,
)
from repro.obs import MetricsRegistry
from repro.resilience import CountingInvariant, MonitorSet, Watchdog
from repro.sim import EventTrace, Node, SynchronousNetwork, TargetedDelay, UniformDelay

GOLDEN_DIR = Path(__file__).parent / "golden"


def _canonical(obj: Any) -> Any:
    """JSON round-trip: tuples -> lists, int keys -> strings, sorted keys."""
    return json.loads(json.dumps(obj, sort_keys=True))


def _doc(trace: EventTrace, stats, **extra: Any) -> Any:
    return _canonical(
        {
            "events": [[e.kind, e.round, e.data] for e in trace.events],
            "stats": asdict(stats),
            **extra,
        }
    )


def _op_map(d: dict) -> list:
    """Tuple-keyed mapping as a sorted pair list (JSON-safe)."""
    return [[list(k) if isinstance(k, tuple) else k, v] for k, v in sorted(d.items())]


def _case_arrow() -> Any:
    tr = EventTrace()
    r = run_arrow(path_spanning_tree(path_graph(8)), range(8), trace=tr)
    return _doc(
        tr, r.stats,
        order=r.order(), total_delay=r.total_delay, delays=_op_map(r.delays),
    )


def _case_central_counting() -> Any:
    tr = EventTrace()
    r = run_central_counting(star_graph(6), range(6), trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_central_queuing() -> Any:
    tr = EventTrace()
    r = run_central_queuing(star_graph(6), range(6), trace=tr)
    return _doc(
        tr, r.stats,
        predecessors=_op_map(
            {k: list(v) if isinstance(v, tuple) else v for k, v in r.predecessors.items()}
        ),
        delays=_op_map(r.delays),
    )


def _case_combining() -> Any:
    tr = EventTrace()
    r = run_combining_counting(bfs_spanning_tree(complete_graph(8)), range(8), trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_flood() -> Any:
    tr = EventTrace()
    r = run_flood_counting(mesh_graph([3, 3]), range(9), trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_cnet() -> Any:
    tr = EventTrace()
    r = run_counting_network(complete_graph(6), range(6), trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_periodic() -> Any:
    tr = EventTrace()
    r = run_periodic_counting(complete_graph(8), range(8), trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_sweep() -> Any:
    tr = EventTrace()
    r = run_sweep_counting(path_graph(8), range(8), trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_arrow_perfetto() -> Any:
    """The Chrome trace-event export of the arrow case, pinned exactly.

    Guards the exporter's whole output contract — span pairing via FIFO
    link order, timestamps (1 round = 1000 us), track metadata, counter
    samples, and the deterministic event sort.
    """
    from repro.obs import chrome_trace

    tr = EventTrace()
    run_arrow(path_spanning_tree(path_graph(8)), range(8), trace=tr)
    return _canonical(chrome_trace(tr, label="arrow path-8"))


def _case_uniform_delay() -> Any:
    """Random (seeded) link delays: ready-heap ordering and the idle-round
    jumps that unit delay never takes."""
    tr = EventTrace()
    r = run_flood_counting(
        path_graph(6), range(6), delay_model=UniformDelay(1, 5, seed=11), trace=tr
    )
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_targeted_delay() -> Any:
    tr = EventTrace()
    r = run_central_counting(
        star_graph(6), range(6),
        delay_model=TargetedDelay(slow_links=frozenset({(1, 0)}), slow=7),
        trace=tr,
    )
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_faults() -> Any:
    """Drops, duplicates and a crash window of the path's middle node: pins
    the RNG-draw and injection order and every cross-crash exchange."""
    tr = EventTrace()
    plan = FaultPlan(
        seed=0,
        drop_rate=0.2,
        duplicate_rate=0.1,
        max_consecutive_drops=2,
        crashes=(NodeCrash(node=2, start=3, end=7),),
    )
    r = run_flood_counting_ft(path_graph(5), range(5), plan, trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_faults_observed() -> Any:
    """Fault-tolerant runs with every observer attached: pins the
    reliable layer's retransmit order, the watchdog's crash pauses and
    the engine's metric publishing (counters, gauge high-water marks,
    histograms, per-round series) alongside the event stream."""
    plan = FaultPlan(
        seed=3,
        drop_rate=0.2,
        duplicate_rate=0.1,
        max_consecutive_drops=2,
        outages=(LinkOutage(0, 1, 4, 12),),
        crashes=(NodeCrash(node=3, start=5, end=15),),
    )
    out = {}
    for name, runner, graph in (
        ("central_ft/star/16", run_central_counting_ft, star_graph(16)),
        ("flood_ft/ring/10", run_flood_counting_ft, ring_graph(10)),
    ):
        n = graph.n
        tr = EventTrace()
        metrics = MetricsRegistry()
        monitors = MonitorSet(
            invariants=(CountingInvariant(expected=n),),
            watchdog=Watchdog(
                stall_window=200, livelock_window=2_000, expected_completions=n
            ),
            metrics=metrics,
        )
        r = runner(
            graph, range(n), plan, trace=tr, metrics=metrics, monitors=monitors
        )
        out[name] = _doc(
            tr, r.stats,
            counts=sorted(r.counts.items()), delays=sorted(r.delays.items()),
            metrics=metrics.to_dict(),
        )
    return out


def _case_retry_exhausted() -> Any:
    """A contended hub exhausts a tight retry budget with no fault
    injected: pins the retransmit schedule up to the raise and the
    metrics document as it stands when the run aborts."""
    tr = EventTrace()
    metrics = MetricsRegistry()
    with pytest.raises(RetryBudgetExceeded) as info:
        run_central_counting_ft(
            star_graph(64), range(64), FaultPlan(),
            trace=tr, metrics=metrics,
            policy=RetryPolicy(timeout=2, max_retries=3),
        )
    e = info.value
    return _canonical(
        {
            "events": [[ev.kind, ev.round, ev.data] for ev in tr.events],
            "error": {
                "node": e.node_id, "dst": e.dst, "kind": e.kind,
                "attempts": e.attempts, "round": e.round,
            },
            "metrics": metrics.to_dict(),
        }
    )


class _Pinger(Node):
    """Wakes at a far-off round fixed by its id and pings a neighbor."""

    def on_start(self, ctx):
        ctx.schedule_wakeup(100 * (self.node_id + 1))

    def on_wake(self, ctx):
        ctx.send(ctx.neighbors[0], "ping")


def _case_wakeup_jumps() -> Any:
    """Staggered far-apart wakeups on an otherwise idle network drive the
    next-event heap's round jumps."""
    tr = EventTrace()
    net = SynchronousNetwork(path_graph(6), {v: _Pinger(v) for v in range(6)}, trace=tr)
    net.run()
    return _doc(tr, net.stats)


CASES = {
    "arrow": _case_arrow,
    "central_counting": _case_central_counting,
    "central_queuing": _case_central_queuing,
    "combining": _case_combining,
    "flood": _case_flood,
    "cnet": _case_cnet,
    "periodic": _case_periodic,
    "sweep": _case_sweep,
    "arrow_perfetto": _case_arrow_perfetto,
    "uniform_delay": _case_uniform_delay,
    "targeted_delay": _case_targeted_delay,
    "faults": _case_faults,
    "faults_observed": _case_faults_observed,
    "retry_exhausted": _case_retry_exhausted,
    "wakeup_jumps": _case_wakeup_jumps,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace(name: str, request: pytest.FixtureRequest) -> None:
    doc = CASES[name]()
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--regen"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path.name}; run with --regen to create it"
    )
    golden = json.loads(path.read_text())
    assert doc == golden, (
        f"{name}: execution diverged from the golden fixture. If the change "
        f"is intentional, regenerate with `pytest {__file__} --regen` and "
        f"review the fixture diff."
    )


def test_golden_dir_matches_cases() -> None:
    """Every fixture has a case and vice versa (no stale goldens)."""
    have = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert have == set(CASES)
