"""Wall-clock profiling of the engine's per-round phases.

A :class:`PhaseProfiler` is attached to a network
(``SynchronousNetwork(..., profiler=prof)`` or a runner's ``profiler=``
kwarg).  The engine then times each phase of every executed round — send
drain, link advance + delivery, node wakeups, fault-injector ticks, and
the protocol's own ``on_receive`` and ``on_wake`` compute (reported
nested inside the receive and wake phases) — and the profiler aggregates
totals, call counts, and maxima per phase.  Like the metrics registry, the hook is zero-cost when
absent: the engine checks one local against ``None`` per phase.

The profiler observes wall time only; it never feeds anything back into
the engine, so a profiled run is event-for-event identical to an
unprofiled one (the determinism sanitizer passes with it attached).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

#: Phases reported nested inside another phase (their time is already
#: included in the parent's total, so shares are computed against the
#: top-level phases only).
NESTED_PHASES = frozenset({"node.on_receive", "node.on_wake"})


class PhaseProfiler:
    """Aggregates wall-clock time per engine phase.

    Attributes:
        rounds: rounds the engine actually executed (idle jumps skip
            rounds, so this can be far below the final round number).
    """

    __slots__ = ("_acc", "rounds", "wall")

    def __init__(self) -> None:
        #: phase -> [total_seconds, calls, max_seconds]
        self._acc: dict[str, list[float]] = {}
        self.rounds = 0
        self.wall = 0.0

    # -------------------------------------------------- engine-facing API

    def clock(self) -> float:
        """The timestamp source (monotonic seconds)."""
        return perf_counter()

    def add(self, phase: str, seconds: float) -> None:
        """Credit ``seconds`` of wall time to ``phase``."""
        acc = self._acc.get(phase)
        if acc is None:
            self._acc[phase] = [seconds, 1, seconds]
            return
        acc[0] += seconds
        acc[1] += 1
        if seconds > acc[2]:
            acc[2] = seconds

    def tick_round(self) -> None:
        """Count one executed engine round."""
        self.rounds += 1

    # ------------------------------------------------------------ reports

    def phases(self) -> list[dict[str, Any]]:
        """Per-phase rows sorted by total time, hottest first."""
        top_total = sum(
            acc[0] for name, acc in self._acc.items() if name not in NESTED_PHASES
        )
        rows = []
        for name, (total, calls, mx) in self._acc.items():
            rows.append(
                {
                    "phase": name,
                    "total_s": total,
                    "calls": int(calls),
                    "mean_us": (total / calls) * 1e6 if calls else 0.0,
                    "max_us": mx * 1e6,
                    "share": (total / top_total) if top_total else 0.0,
                    "nested": name in NESTED_PHASES,
                }
            )
        rows.sort(key=lambda r: (-r["total_s"], r["phase"]))
        return rows

    def hottest(self) -> str | None:
        """Name of the phase with the largest total time (None if empty)."""
        rows = self.phases()
        return rows[0]["phase"] if rows else None

    def render(self) -> str:
        """The phase table as aligned text, hottest phase first."""
        rows = self.phases()
        if not rows:
            return "(no phases recorded)"
        header = (
            f"{'phase':<18} {'total ms':>10} {'calls':>9} "
            f"{'mean us':>9} {'max us':>9} {'share':>7}"
        )
        lines = [header, "-" * len(header)]
        for r in rows:
            name = r["phase"] + (" *" if r["nested"] else "")
            lines.append(
                f"{name:<18} {r['total_s'] * 1e3:>10.3f} {r['calls']:>9d} "
                f"{r['mean_us']:>9.2f} {r['max_us']:>9.2f} "
                f"{r['share'] * 100:>6.1f}%"
            )
        lines.append(
            f"rounds executed: {self.rounds}   wall: {self.wall * 1e3:.3f} ms"
            "   (* protocol compute nested inside its engine phase)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe profile document."""
        return {
            "rounds": self.rounds,
            "wall_s": self.wall,
            "phases": self.phases(),
        }


__all__ = ["PhaseProfiler", "NESTED_PHASES"]
