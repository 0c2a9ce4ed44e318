"""Metric definitions and the statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are the tables ``BENCHMARK.json`` is
checked against (see ``tests/test_perfbench.py``).  Each per-layer entry
also names the end-to-end metric and workload it should move, which the
``BENCHMARK.json`` schema has no field for.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

#: name -> (unit, better, bound, definition)
END_TO_END: dict[str, tuple[str, str, float, str]] = {
    "setup_s": ("s", "lower", 0.25,
                "import repro and build every input of the workload; median of 9 "
                "fresh processes"),
    "wall_s": ("s", "lower", 0.25,
               "one pass over the workload's executions with their verification, "
               "each execution at its fastest repetition of the run"),
    "exec_p50_ms": ("ms", "lower", 0.25,
                    "median over the distinct executions of a pass, each at its "
                    "fastest repetition"),
    "exec_p90_ms": ("ms", "lower", 0.25,
                    "p90 (nearest rank) over the distinct executions of a pass, each "
                    "at its fastest repetition"),
    "peak_rss_mb": ("MB", "lower", 0.2, "peak resident memory of the measuring process"),
    "ok_frac": ("ratio", "higher", 0.01,
                "share of attempted executions (and suite checks) that completed, "
                "verified and matched the reference"),
    "sim_msgs_per_op": ("msgs/op", "lower", 0.2,
                        "simulated messages sent per requested operation"),
    "sim_delay_per_op": ("rounds/op", "lower", 0.2,
                         "the paper's total completion delay per operation"),
}

#: Experiment ids of the suite, for the per-experiment metrics.
EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 23))

#: Raw per-layer keys taken from the traced suite check, not the passes.
SUITE_LAYERS = ("incl:experiments.", "self:tsp", "self:bounds")

#: The suite runs once per run, untimed, as adversary-search's check: its
#: layers are measured in the traced run but move no end-to-end metric.
SUITE_MOVES = "none: the untimed suite check of adversary-search"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


#: name -> (unit, better, moves, value from the per-pass raw values)
PER_LAYER: dict[str, tuple[str, str, str, Callable[[dict], float]]] = {
    "topology.build_s": ("s", "lower", "setup_s on paper-scale",
                         lambda v: v.get("self:topology.build", 0.0)),
    "topology.bfs_calls": ("count", "lower", "exec_p50_ms on adversary-search",
                           lambda v: v.get("calls:topology.bfs", 0)),
    "topology.bfs_s": ("s", "lower", "exec_p50_ms on adversary-search",
                       lambda v: v.get("self:topology.bfs", 0.0)),
    "sim.init_s": ("s", "lower", "exec_p50_ms on adversary-search",
                   lambda v: v.get("self:sim.init", 0.0)),
    "sim.run_self_s": ("s", "lower", "wall_s on paper-scale",
                       lambda v: v.get("self:sim.run", 0.0)),
    "sim.send_s": ("s", "lower", "wall_s on paper-scale",
                   lambda v: v.get("phase:send", 0.0)),
    "sim.receive_s": ("s", "lower", "wall_s on paper-scale",
                      lambda v: v.get("phase:receive", 0.0)),
    "sim.wake_s": ("s", "lower", "wall_s on paper-scale",
                   lambda v: v.get("phase:wake", 0.0)),
    "sim.us_per_msg": ("us/msg", "lower", "wall_s on paper-scale",
                       lambda v: 1e6 * _ratio(v.get("self:sim.run", 0.0),
                                              v.get("sim.msgs_delivered", 0))),
    "sim.msgs_delivered": ("count", "lower", "wall_s on paper-scale",
                           lambda v: v.get("sim.msgs_delivered", 0)),
    "sim.rounds_executed": ("count", "lower", "wall_s on paper-scale",
                            lambda v: v.get("sim.rounds_executed", 0)),
    "sim.link_wait": ("count", "lower", "wall_s on paper-scale",
                      lambda v: v.get("sim.link_wait", 0)),
    "counting.callback_s": ("s", "lower", "wall_s on paper-scale",
                            lambda v: v.get("self:counting.callback", 0.0)),
    "arrow.callback_s": ("s", "lower", "wall_s on paper-scale",
                         lambda v: v.get("self:arrow.callback", 0.0)),
    "counting.callbacks_per_msg": ("calls/msg", "lower", "wall_s on paper-scale",
                                   lambda v: _ratio(v.get("calls:counting.callback", 0),
                                                    v.get("counting.msgs_delivered", 0))),
    "counting.runner_self_s": ("s", "lower", "exec_p50_ms on adversary-search",
                               lambda v: v.get("self:counting.runner", 0.0)),
    "arrow.runner_self_s": ("s", "lower", "exec_p50_ms on adversary-search",
                            lambda v: v.get("self:arrow.runner", 0.0)),
    "core.verify_s": ("s", "lower", "exec_p50_ms on adversary-search",
                      lambda v: v.get("self:core.verify", 0.0)),
    "core.search_self_s": ("s", "lower", "wall_s on adversary-search",
                           lambda v: v.get("self:core.search", 0.0)),
    "faults.reliable_self_s": ("s", "lower", "wall_s and exec_p90_ms on chaos-observed",
                               lambda v: v.get("self:faults.reliable", 0.0)),
    "faults.injector_s": ("s", "lower", "wall_s and exec_p90_ms on chaos-observed",
                          lambda v: v.get("self:faults.injector", 0.0)),
    "faults.retransmits": ("count", "lower", "sim_msgs_per_op on chaos-observed",
                           lambda v: v.get("metric:reliable.retransmits", 0)),
    "faults.acks": ("count", "lower", "sim_msgs_per_op on chaos-observed",
                    lambda v: v.get("metric:reliable.acks_sent", 0)),
    "faults.useful_frac": ("ratio", "higher", "sim_msgs_per_op on chaos-observed",
                           lambda v: _ratio(v.get("metric:reliable.app_sends", 0),
                                            v.get("faults.observed_msgs_sent", 0))),
    "faults.retry_exhausted": ("count", "lower", "ok_frac on chaos-observed",
                               lambda v: v.get("faults.retry_exhausted", 0)),
    "obs.trace_s": ("s", "lower", "wall_s on chaos-observed",
                    lambda v: v.get("self:obs.trace", 0.0)),
    "obs.trace_events": ("count", "lower", "wall_s on chaos-observed",
                         lambda v: v.get("calls:obs.trace", 0)),
    "obs.metrics_s": ("s", "lower", "wall_s on chaos-observed",
                      lambda v: v.get("self:obs.metrics", 0.0)),
    "resilience.monitors_s": ("s", "lower", "wall_s on chaos-observed",
                              lambda v: v.get("self:resilience.monitors", 0.0)),
    "resilience.rounds_checked": ("count", "lower", "wall_s on chaos-observed",
                                  lambda v: v.get("resilience.rounds_checked", 0)),
    **{
        f"experiments.{e}_s": ("s", "lower", SUITE_MOVES,
                               (lambda key: lambda v: v.get(key, 0.0))(f"incl:experiments.{e}"))
        for e in EXPERIMENT_IDS
    },
    "tsp.s": ("s", "lower", SUITE_MOVES, lambda v: v.get("self:tsp", 0.0)),
    "bounds.s": ("s", "lower", SUITE_MOVES, lambda v: v.get("self:bounds", 0.0)),
    "trace.overhead_frac": ("ratio", "lower", "none: the traced run's own cost",
                            lambda v: v.get("trace.overhead_frac", 0.0)),
}


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile by the nearest-rank rule: ``sorted[ceil(q n) - 1]``."""
    if not samples:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-quantile."""
    return n - max(1, math.ceil(q * n))

