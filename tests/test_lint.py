"""The model-conformance linter (rules R1-R5), sanitizer, and strict mode."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    check_determinism,
    check_determinism_subprocess,
    check_file,
    check_paths,
    check_source,
    render_json,
    render_text,
)
from repro.sim import (
    EventTrace,
    Node,
    NodeContext,
    StrictModeViolation,
    SynchronousNetwork,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"


def marked_line(src: str, marker: str) -> int:
    """1-based line number of the (unique) line containing ``marker``."""
    hits = [i for i, ln in enumerate(src.splitlines(), 1) if marker in ln]
    assert len(hits) == 1, f"marker {marker!r} found {len(hits)} times"
    return hits[0]


def findings_for(src: str):
    return check_source(src, "fixture.py")


# --------------------------------------------------------------------- R1


SRC_R1 = """\
from repro.sim import Node


class InternalsNode(Node):
    def __init__(self, node_id, net):
        super().__init__(node_id)
        self.net = net
        self._in_links = []  # the node's own attribute, not engine state

    def on_start(self, ctx):
        ctx._network._enqueue_send(self.node_id, 0, "x", None)  # MARK-R1

    def on_receive(self, msg, ctx):
        waiting = self.net._in_links[ctx.node_id]  # MARK-LINKS
        self._in_links.append(len(waiting))
"""


class TestR1EngineInternals:
    def test_flags_private_engine_access(self):
        findings = findings_for(SRC_R1)
        r1 = [f for f in findings if f.rule_id == "R1"]
        assert r1, f"no R1 finding in {findings}"
        assert {f.line for f in r1} == {
            marked_line(SRC_R1, "MARK-R1"), marked_line(SRC_R1, "MARK-LINKS")
        }
        assert all(f.path == "fixture.py" for f in r1)


# --------------------------------------------------------------------- R2


SRC_R2 = """\
from repro.sim import Node


class RogueSendNode(Node):
    def not_a_callback(self, ctx):
        ctx.send(1, "x")  # MARK-R2-UNREACHABLE

    def on_start(self, ctx):
        ctx.send(ctx.node_id, "x")  # MARK-R2-SELF
"""


class TestR2SendDiscipline:
    def test_flags_send_outside_callbacks(self):
        findings = findings_for(SRC_R2)
        lines = {f.line for f in findings if f.rule_id == "R2"}
        assert marked_line(SRC_R2, "MARK-R2-UNREACHABLE") in lines

    def test_flags_send_to_self(self):
        findings = findings_for(SRC_R2)
        lines = {f.line for f in findings if f.rule_id == "R2"}
        assert marked_line(SRC_R2, "MARK-R2-SELF") in lines


# --------------------------------------------------------------------- R3


SRC_R3 = """\
import random

from repro.sim import Node


class HazardNode(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.peers = set()

    def on_start(self, ctx):
        for p in self.peers:  # MARK-R3-SET
            ctx.send(p, "x")
        if random.random() < 0.5:  # MARK-R3-RANDOM
            pass

    def on_receive(self, msg, ctx):
        import time
        _ = time.time()  # MARK-R3-CLOCK
"""


class TestR3Nondeterminism:
    def test_flags_unsorted_set_iteration(self):
        lines = {f.line for f in findings_for(SRC_R3) if f.rule_id == "R3"}
        assert marked_line(SRC_R3, "MARK-R3-SET") in lines

    def test_flags_global_random(self):
        lines = {f.line for f in findings_for(SRC_R3) if f.rule_id == "R3"}
        assert marked_line(SRC_R3, "MARK-R3-RANDOM") in lines

    def test_flags_clock_read(self):
        lines = {f.line for f in findings_for(SRC_R3) if f.rule_id == "R3"}
        assert marked_line(SRC_R3, "MARK-R3-CLOCK") in lines

    def test_sorted_iteration_not_flagged(self):
        src = SRC_R3.replace("for p in self.peers:", "for p in sorted(self.peers):")
        lines = {f.line for f in check_source(src, "f.py") if f.rule_id == "R3"}
        assert marked_line(src, "MARK-R3-SET") not in lines


# --------------------------------------------------------------------- R4


SRC_R4 = """\
from repro.sim import Node


class SharedStateNode(Node):
    inbox = []  # MARK-R4

    def on_receive(self, msg, ctx):
        self.inbox.append(msg)
"""


class TestR4SharedClassState:
    def test_flags_mutable_class_attribute(self):
        findings = findings_for(SRC_R4)
        r4 = [f for f in findings if f.rule_id == "R4"]
        assert r4
        assert marked_line(SRC_R4, "MARK-R4") in {f.line for f in r4}

    def test_immutable_class_attribute_ok(self):
        src = SRC_R4.replace("inbox = []  # MARK-R4", "LIMIT = 3")
        src = src.replace("self.inbox.append(msg)", "pass")
        assert [f for f in check_source(src, "f.py") if f.rule_id == "R4"] == []


# --------------------------------------------------------------------- R5


SRC_R5 = """\
from repro.sim import Node


class EagerCompleteNode(Node):
    def on_receive(self, msg, ctx):
        ctx.complete(self.node_id, result=msg.payload)  # MARK-R5
"""

SRC_R5_GUARDED = """\
from repro.sim import Node


class GuardedCompleteNode(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.done = False

    def on_receive(self, msg, ctx):
        if not self.done:
            self.done = True
            ctx.complete(self.node_id, result=msg.payload)
"""


class TestR5DoubleCompletion:
    def test_flags_unguarded_complete_in_on_receive(self):
        findings = findings_for(SRC_R5)
        r5 = [f for f in findings if f.rule_id == "R5"]
        assert r5
        assert marked_line(SRC_R5, "MARK-R5") in {f.line for f in r5}

    def test_completion_guard_suppresses(self):
        assert [
            f for f in findings_for(SRC_R5_GUARDED) if f.rule_id == "R5"
        ] == []

    def test_message_derived_op_id_suppresses(self):
        src = SRC_R5.replace(
            "ctx.complete(self.node_id, result=msg.payload)  # MARK-R5",
            "ctx.complete(msg.payload, result=1)",
        )
        assert [f for f in check_source(src, "f.py") if f.rule_id == "R5"] == []


# ----------------------------------------------------------- clean protocol


SRC_CLEAN = """\
from repro.sim import Message, Node, NodeContext


class CleanNode(Node):
    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.done = False

    def on_start(self, ctx: NodeContext) -> None:
        for u in sorted(ctx.neighbors):
            ctx.send(u, "hello", payload=self.node_id)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if not self.done:
            self.done = True
            ctx.complete(self.node_id, result=msg.payload)
"""


class TestCleanProtocol:
    def test_no_findings(self):
        assert findings_for(SRC_CLEAN) == []

    def test_repo_protocols_are_clean(self):
        assert check_paths(["src/repro"]) == []

    def test_sanitizer_fixtures_have_expected_static_verdicts(self):
        nondet = check_file(str(FIXTURES / "nondet_proto.py"))
        assert any(f.rule_id == "R3" for f in nondet)
        det = check_file(str(FIXTURES / "det_proto.py"))
        assert [f for f in det if f.rule_id == "R3"] == []


# ------------------------------------------------------------------ output


class TestRendering:
    def test_text_output_anchors(self):
        out = render_text(findings_for(SRC_R4))
        line = marked_line(SRC_R4, "MARK-R4")
        assert f"fixture.py:{line}:" in out
        assert "R4" in out and "shared-class-state" in out

    def test_text_clean_summary(self):
        assert render_text([]) == "lint: clean"

    def test_json_output(self):
        payload = json.loads(render_json(findings_for(SRC_R5)))
        assert payload["count"] == len(payload["findings"]) >= 1
        first = payload["findings"][0]
        assert {"rule_id", "path", "line", "col", "obj", "message"} <= set(first)


# --------------------------------------------------------------------- CLI


class TestLintCli:
    def test_lint_own_protocols_exits_zero(self, capsys):
        assert main(["lint", "src/repro"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_lint_bad_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad_proto.py"
        bad.write_text(SRC_R5)
        assert main(["lint", str(bad)]) == 1
        assert "R5" in capsys.readouterr().out

    def test_lint_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad_proto.py"
        bad.write_text(SRC_R4)
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 1

    def test_count_sanitize_flag(self, capsys):
        code = main(
            ["count", "--graph", "path", "--n", "6",
             "--algorithm", "combining", "--sanitize"]
        )
        assert code == 0
        assert "deterministic" in capsys.readouterr().out


# ----------------------------------------------------------------- sanitizer


def _random_kind_run(trace: EventTrace) -> None:
    """A protocol whose message kinds consume the global RNG stream."""
    import random

    class Chatty(Node):
        def on_start(self, ctx: NodeContext) -> None:
            for u in ctx.neighbors:
                ctx.send(u, f"k{random.randrange(10**9)}")

        def on_receive(self, msg, ctx) -> None:
            pass

    nodes = {0: Chatty(0), 1: Chatty(1)}
    net = SynchronousNetwork({0: [1], 1: [0]}, nodes, trace=trace)
    net.run(max_rounds=10)


def _clean_run(trace: EventTrace) -> None:
    nodes = {0: _ping(0), 1: _ping(1)}
    net = SynchronousNetwork({0: [1], 1: [0]}, nodes, trace=trace)
    net.run(max_rounds=10)


class _ping(Node):
    def on_start(self, ctx: NodeContext) -> None:
        for u in ctx.neighbors:
            ctx.send(u, "ping")

    def on_receive(self, msg, ctx) -> None:
        pass


class TestSanitizerInProcess:
    def test_detects_rng_dependence(self):
        report = check_determinism(_random_kind_run)
        assert not report.deterministic
        assert report.divergence is not None
        assert "diverge" in report.describe()

    def test_clean_protocol_passes(self):
        report = check_determinism(_clean_run, runs=3)
        assert report.deterministic
        assert report.runs == 3
        assert report.events > 0

    def test_rejects_single_run(self):
        with pytest.raises(ValueError):
            check_determinism(_clean_run, runs=1)


class TestSanitizerSubprocess:
    def test_catches_hash_seed_dependence(self):
        # The engine itself accepts the run (run_trace returns normally in
        # every child); only the cross-seed trace diff exposes the hazard.
        report = check_determinism_subprocess(
            "nondet_proto:run_trace",
            hash_seeds=(0, 1, 2),
            extra_sys_path=[str(FIXTURES)],
        )
        assert not report.deterministic
        div = report.divergence
        assert div is not None
        assert "PYTHONHASHSEED" in (div.run_a + div.run_b)

    def test_sorted_twin_is_deterministic(self):
        report = check_determinism_subprocess(
            "det_proto:run_trace",
            hash_seeds=(0, 1, 2),
            extra_sys_path=[str(FIXTURES)],
        )
        assert report.deterministic

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError):
            check_determinism_subprocess("no_colon_here")


# ---------------------------------------------------------------- strict mode


class _Blaster(Node):
    def on_start(self, ctx: NodeContext) -> None:
        for u in ctx.neighbors:
            ctx.send(u, "hi")

    def on_receive(self, msg, ctx) -> None:
        pass


class _LeafSender(Node):
    def on_start(self, ctx: NodeContext) -> None:
        if ctx.node_id != 0:
            ctx.send(0, "hi")

    def on_receive(self, msg, ctx) -> None:
        pass


_STAR = {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}


class TestStrictMode:
    def test_send_budget_overrun_raises(self):
        nodes = {v: _Blaster(v) for v in _STAR}
        with pytest.raises(StrictModeViolation, match="send budget"):
            SynchronousNetwork(_STAR, nodes, strict=True).run()

    def test_receive_budget_overrun_raises(self):
        nodes = {v: _LeafSender(v) for v in _STAR}
        with pytest.raises(StrictModeViolation, match="receive budget"):
            SynchronousNetwork(_STAR, nodes, strict=True).run()

    def test_same_protocol_passes_without_strict(self):
        nodes = {v: _Blaster(v) for v in _STAR}
        SynchronousNetwork(_STAR, nodes).run()

    def test_adequate_capacity_passes_strict(self):
        nodes = {v: _Blaster(v) for v in _STAR}
        SynchronousNetwork(
            _STAR, nodes, send_capacity=3, recv_capacity=3, strict=True
        ).run()
