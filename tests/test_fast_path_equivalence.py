"""Observed vs bare runs: execution equivalence on the golden protocols.

Observers only watch the engine: a run with an :class:`EventTrace` (and,
where the runner takes one, a :class:`PhaseProfiler`) attached must
produce the same stats and the same protocol output as the same run with
nothing attached, and two observed runs must record identical event
streams.  These tests run every golden protocol both ways and diff the
executions.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Callable

import pytest

from repro import (
    bfs_spanning_tree,
    complete_graph,
    mesh_graph,
    path_graph,
    path_spanning_tree,
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
from repro.obs.profile import PhaseProfiler
from repro.sim import EventTrace

#: Each case takes the observer kwargs to pass through to its runner.
CASES: dict[str, Callable[..., Any]] = {
    "arrow": lambda **kw: run_arrow(
        path_spanning_tree(path_graph(8)), range(8), **kw
    ),
    "central_counting": lambda **kw: run_central_counting(
        star_graph(6), range(6), **kw
    ),
    "central_queuing": lambda **kw: run_central_queuing(
        star_graph(6), range(6), **kw
    ),
    "combining": lambda **kw: run_combining_counting(
        bfs_spanning_tree(complete_graph(8)), range(8), **kw
    ),
    "flood": lambda **kw: run_flood_counting(mesh_graph([3, 3]), range(9), **kw),
    "cnet": lambda **kw: run_counting_network(complete_graph(6), range(6), **kw),
    "periodic": lambda **kw: run_periodic_counting(
        complete_graph(8), range(8), **kw
    ),
    # The sweep runner takes a trace but no profiler.
    "sweep": lambda **kw: run_sweep_counting(
        path_graph(8), range(8), trace=kw.get("trace")
    ),
}


def _output_fingerprint(result: Any) -> Any:
    """The protocol-level output, normalised for comparison."""
    if hasattr(result, "counts"):
        return sorted(result.counts.items())
    if hasattr(result, "order"):
        return (result.order(), result.total_delay)
    return (sorted(result.predecessors.items()), result.total_delay)


def _observed(name: str) -> tuple[list, dict, Any]:
    """Run one case with a trace and a profiler attached."""
    tr = EventTrace()
    result = CASES[name](trace=tr, profiler=PhaseProfiler())
    events = [(e.kind, e.round, e.data) for e in tr.events]
    return events, asdict(result.stats), _output_fingerprint(result)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_protocols_equivalent(name: str) -> None:
    bare = CASES[name]()
    events, stats, output = _observed(name)
    assert events, f"{name}: the trace recorded nothing"
    assert stats == asdict(bare.stats), f"{name}: RunStats diverged"
    assert output == _output_fingerprint(bare), f"{name}: outputs diverged"
    assert _observed(name) == (events, stats, output), f"{name}: reruns diverged"
