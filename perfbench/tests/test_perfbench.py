"""Tests for the benchmark's own code: ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import Instrumentation, Tracer, layer_values, phase_self_times, self_times
from summary import END_TO_END, PER_LAYER, nearest_rank, samples_beyond
from workloads import WORKLOADS, AdversarySearch, ChaosObserved, Outcome, Recorder

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------- percentiles


def test_p90_needs_100_samples_for_ten_beyond():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert samples_beyond(45, 0.9) == 4
    assert samples_beyond(1000, 0.5) == 500


def test_nearest_rank_picks_an_observed_sample():
    samples = list(range(1, 101))
    assert nearest_rank(samples, 0.9) == 90
    assert nearest_rank(samples, 0.5) == 50
    assert nearest_rank(list(reversed(samples)), 0.9) == 90
    assert nearest_rank([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


# ------------------------------------------------------------ self times


def _spans(rows):
    """Tracer filled from (parent, tag, t0, t1) rows."""
    tracer = Tracer()
    for parent, tag, t0, t1 in rows:
        tracer.parent.append(parent)
        tracer.name.append(tag)
        tracer.tag.append(tag)
        tracer.t0.append(t0)
        tracer.t1.append(t1)
    return tracer


def test_self_time_subtracts_direct_children_only():
    tr = _spans([
        (-1, "a", 0.0, 10.0),   # 0: two children cover 3 + 2
        (0, "b", 1.0, 4.0),     # 1: its child covers 1
        (1, "c", 2.0, 3.0),     # 2: leaf
        (0, "b", 5.0, 7.0),     # 3: leaf
    ])
    assert self_times(tr.parent, tr.t0, tr.t1) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    values = layer_values(tr)
    assert values["self:a"] == pytest.approx(5.0)
    assert values["self:b"] == pytest.approx(4.0)
    assert values["calls:b"] == 2


def test_phase_time_is_net_of_children_inside_it():
    tr = _spans([
        (-1, "sim.run", 0.0, 10.0),
        (0, "counting.callback", 1.0, 2.0),   # inside receive
        (0, "counting.callback", 6.0, 6.5),   # inside wake
        (0, "obs.trace", 8.0, 8.2),           # between phases: in no phase
    ])
    phases = [(0, "receive", 0.5, 4.0), (0, "wake", 5.0, 7.0), (0, "receive", 9.0, 9.5)]
    out = phase_self_times(tr.parent, tr.t0, tr.t1, phases)
    assert out["receive"] == pytest.approx(3.5 - 1.0 + 0.5)
    assert out["wake"] == pytest.approx(2.0 - 0.5)


def test_instrumentation_traces_a_runner_and_restores_everything():
    import repro.counting
    import repro.counting.central as central
    from repro.sim.network import SynchronousNetwork
    from repro.topology import star_graph

    before = (repro.counting.run_central_counting, central.bfs_distances,
              SynchronousNetwork.__dict__["run"])
    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install()
    try:
        repro.counting.run_central_counting(star_graph(6), [1, 2, 3])
    finally:
        inst.uninstall()
    after = (repro.counting.run_central_counting, central.bfs_distances,
             SynchronousNetwork.__dict__["run"])
    assert after == before
    values = layer_values(tracer)
    for tag in ("counting.runner", "sim.init", "sim.run", "counting.callback",
                "core.verify", "topology.bfs"):
        assert values["calls:" + tag] >= 1, tag
    assert values["sim.msgs_delivered"] == 6
    assert values["phase:receive"] > 0
    # Spans nest: every parent id precedes its child.
    assert all(p < i for i, p in enumerate(tracer.parent) if p >= 0)


# ------------------------------------------------------------ determinism


def test_same_seed_same_inputs_and_sims_other_seed_differs():
    def pass_of(seed):
        w = AdversarySearch(seed)
        w.setup()
        rec = Recorder(None)
        w.run_pass(rec)
        return [s[4] for s in w.searches], rec.record

    starts_a, sims_a = pass_of(3)
    starts_b, sims_b = pass_of(3)
    assert starts_a == starts_b
    assert sims_a == sims_b
    starts_c, _ = pass_of(4)
    assert starts_c != starts_a
    # Seeds that select the same input variant build the same inputs.
    assert pass_of(3 + 16)[0] == starts_a


def test_chaos_plans_come_from_the_seed():
    def plans(seed):
        w = ChaosObserved(seed)
        w.setup()
        return [plan.to_dict() for *_, plan in w.execs]

    assert plans(5) == plans(5)
    assert plans(5) != plans(6)


# ---------------------------------------------------- failure accounting


def test_failed_executions_are_counted_not_dropped():
    from repro.core.verify import VerificationError
    from repro.faults.reliable import RetryBudgetExceeded

    rec = Recorder({"pin": [[1, 2, 3, 4], [1, 2, 3, 4]]})

    def retry():
        raise RetryBudgetExceeded(0, 1, "reply", 31, round_=1888)

    def wrong():
        raise VerificationError("counts are not exactly 1..3")

    rec.execute("retry", retry)
    rec.execute("wrong", wrong)
    rec.execute("ok", lambda: (3, (1, 2, 3, 4)), pin=("pin", 0))
    rec.execute("moved", lambda: (3, (1, 2, 3, 5)), pin=("pin", 1))
    rec.execute("unpinned", lambda: (3, (1, 2, 3, 4)), pin=("pin", 2))
    by = {o.name: o for o in rec.outcomes}
    assert len(rec.outcomes) == 5
    assert by["retry"].failures == 1 and not by["retry"].wrong
    assert "RetryBudgetExceeded" in by["retry"].error
    assert by["wrong"].failures == 1 and by["wrong"].wrong
    assert by["ok"].failures == 0
    assert by["moved"].failures == 1 and by["moved"].wrong
    assert by["unpinned"].failures == 1


def test_unmodelled_errors_propagate():
    rec = Recorder({})

    def broken():
        raise KeyError("harness bug")

    with pytest.raises(KeyError):
        rec.execute("broken", broken)


def test_ok_frac_counts_failures_against_attempts():
    import run

    passes = [[Outcome("a", 0.1, ops=2, sim=(1, 4, 0, 3)),
               Outcome("b", 0.2, failures=1, error="RetryBudgetExceeded")]] * 3
    values, attempted, failed, _ = run.end_to_end([0.5], [1.0], passes, [])
    assert (attempted, failed) == (6, 3)
    assert values["ok_frac"][0] == pytest.approx(0.5)
    assert values["sim_msgs_per_op"][0] == pytest.approx(2.0)
    assert values["exec_p50_ms"][0] == pytest.approx(100.0)


def test_wall_is_each_execution_at_its_fastest_repetition():
    import run

    passes = [[Outcome("a", 0.1), Outcome("b", 0.3)],
              [Outcome("a", 0.2), Outcome("b", 0.2)]]
    values, *_ = run.end_to_end([0.5], [0.4, 0.4], passes, [])
    assert values["wall_s"][0] == pytest.approx(0.3)
    assert values["exec_p90_ms"][0] == pytest.approx(200.0)


# --------------------------------------------------------- the contract


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == {
        name: spec[:3] for name, spec in END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: spec[:2] for name, spec in PER_LAYER.items()}
    assert doc["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in doc["end_to_end"]) == END_TO_END["setup_s"][2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
