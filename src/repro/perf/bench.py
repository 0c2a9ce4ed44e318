"""Engine throughput benchmarks on a fixed protocol x topology matrix.

Each cell runs one protocol to quiescence on one topology and reports
engine throughput — rounds/sec and messages/sec.  The matrix spans the
engine's distinct regimes: long pipelines (path), hub contention
(star), all-to-all gossip (complete), and the arrow protocol's tree
walks.

The output document (``repro bench --json BENCH_engine.json``) is the
committed baseline that CI compares against; see
:mod:`repro.perf.compare` and ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

#: Bumped when the document layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchCell:
    """One benchmark cell: a protocol run on a fixed topology.

    Attributes:
        name: stable identifier, ``protocol/topology/n`` — compare
            matches cells across documents by this.
        protocol: protocol label (``flood``, ``arrow``, ...).
        topology: topology label (``path``, ``star``, ...).
        n: vertex count.
        run: zero-argument callable executing the cell once and returning
            the run's :class:`~repro.sim.network.RunStats`.
    """

    name: str
    protocol: str
    topology: str
    n: int
    run: Callable[[], Any]


def _flood_path(n: int) -> Any:
    from repro import path_graph, run_flood_counting

    return run_flood_counting(path_graph(n), range(n)).stats


def _flood_complete(n: int) -> Any:
    from repro import complete_graph, run_flood_counting

    return run_flood_counting(complete_graph(n), range(n)).stats


def _arrow_path(n: int) -> Any:
    from repro import path_graph, run_arrow
    from repro.topology.spanning import path_spanning_tree

    return run_arrow(path_spanning_tree(path_graph(n)), range(n)).stats


def _central_star(n: int) -> Any:
    from repro import run_central_counting, star_graph

    return run_central_counting(star_graph(n), range(n)).stats


def _combining_mesh(side: int) -> Any:
    from repro import bfs_spanning_tree, mesh_graph, run_combining_counting

    g = mesh_graph([side, side])
    return run_combining_counting(bfs_spanning_tree(g), range(side * side)).stats


def _cnet_complete(n: int) -> Any:
    from repro import complete_graph, run_counting_network

    return run_counting_network(complete_graph(n), range(n)).stats


#: The fixed matrix.  ``flood/path/512`` is the acceptance cell the PR
#: history tracks; keep names stable so baselines stay comparable.  Sizes
#: are chosen so every cell runs long enough (>~50ms) for stable timing —
#: sub-10ms cells make the regression gate flaky.
BENCH_CELLS: tuple[BenchCell, ...] = (
    BenchCell("flood/path/512", "flood", "path", 512, lambda: _flood_path(512)),
    BenchCell(
        "flood/complete/128", "flood", "complete", 128,
        lambda: _flood_complete(128),
    ),
    BenchCell("arrow/path/8192", "arrow", "path", 8192, lambda: _arrow_path(8192)),
    BenchCell(
        "central/star/4096", "central", "star", 4096,
        lambda: _central_star(4096),
    ),
    BenchCell(
        "combining/mesh/4096", "combining", "mesh", 4096,
        lambda: _combining_mesh(64),
    ),
    BenchCell(
        "cnet/complete/128", "cnet", "complete", 128,
        lambda: _cnet_complete(128),
    ),
)


def calibrate(loops: int = 2_000_000) -> float:
    """Machine-speed probe: plain-Python ops/sec on a fixed arithmetic loop.

    Stored alongside the cell timings so a comparison across machines can
    normalise out raw interpreter speed (see
    :func:`repro.perf.compare.compare_benchmarks`).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i & 7
    dt = time.perf_counter() - t0
    return loops / dt if dt > 0 else 0.0


def _time_cell(cell: BenchCell, repeats: int) -> tuple[float, Any]:
    """Best-of-``repeats`` wall-clock for one cell, with its stats."""
    best = None
    stats = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        stats = cell.run()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best or 0.0, stats


def run_bench(
    *,
    repeats: int = 1,
    names: Sequence[str] | None = None,
    cells: Sequence[BenchCell] | None = None,
) -> dict[str, Any]:
    """Run the benchmark matrix and return the JSON-safe document.

    Args:
        repeats: timings per cell; the best (minimum) is kept.
        names: restrict to these cell names (unknown names raise).
        cells: override the matrix entirely (used by tests).

    Returns:
        ``{"schema", "calibration_ops_per_sec", "cells": [...]}`` where
        each cell row carries rounds, messages, seconds, rounds_per_sec,
        and messages_per_sec.
    """
    matrix = list(cells if cells is not None else BENCH_CELLS)
    if names:
        by_name = {c.name: c for c in matrix}
        unknown = [n for n in names if n not in by_name]
        if unknown:
            raise KeyError(f"unknown bench cells: {unknown}; have {sorted(by_name)}")
        matrix = [by_name[n] for n in names]

    rows: list[dict[str, Any]] = []
    for cell in matrix:
        dt, stats = _time_cell(cell, repeats)
        rows.append({
            "name": cell.name,
            "protocol": cell.protocol,
            "topology": cell.topology,
            "n": cell.n,
            "rounds": stats.rounds,
            "messages": stats.messages_sent,
            "seconds": round(dt, 4),
            "rounds_per_sec": round(stats.rounds / dt, 1) if dt else 0.0,
            "messages_per_sec": round(stats.messages_sent / dt, 1) if dt else 0.0,
        })

    return {
        "schema": SCHEMA_VERSION,
        "calibration_ops_per_sec": round(calibrate(), 1),
        "cells": rows,
    }


def render_bench(doc: dict[str, Any]) -> str:
    """Human-readable table for one benchmark document."""
    lines = [
        f"{'cell':<24} {'rounds':>8} {'messages':>10} {'sec':>8} {'msgs/sec':>12}"
    ]
    for row in doc["cells"]:
        lines.append(
            f"{row['name']:<24} {row['rounds']:>8} {row['messages']:>10} "
            f"{row['seconds']:>8.3f} {row['messages_per_sec']:>12,.0f}"
        )
    return "\n".join(lines)
