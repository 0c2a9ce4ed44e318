"""The traced run: spans around every layer's public entry points.

Nothing in ``repro`` knows about this module.  :class:`Instrumentation`
replaces each entry point with a wrapper that records a span — name,
layer tag, start, end and the id of the enclosing span — in a
:class:`Tracer` held in memory, and puts the originals back on
:meth:`Instrumentation.uninstall`.  A function imported by name into
another module (``from repro.core.verify import verify_counting``) is
replaced in every ``repro`` module that holds it, so calls made from
inside a runner are seen too.

Self time of a span is its duration minus the time its direct children
cover; a layer's self time is the sum over its spans.  The engine's
per-round phases come from the public :class:`repro.obs.PhaseProfiler`,
which the wrapper attaches to every network built while tracing; each
phase's time is reported net of the callback and hook spans that ran
inside it.
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import json
import pkgutil
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter as clock
from typing import Any, Callable, Iterator, Sequence

#: Engine phases credited by ``PhaseProfiler.add`` that become metrics.
SIM_PHASES = ("send", "receive", "wake")

#: Node callbacks the engine invokes.
CALLBACKS = ("on_start", "on_receive", "on_wake")


class Tracer:
    """In-memory span store, one column per field.

    Span ``i`` has ``parent[i]`` (``-1`` at the top), ``name[i]``,
    ``tag[i]`` (the layer it is billed to), ``t0[i]`` and ``t1[i]``.
    ``phases`` holds ``(run_span, phase, t0, t1)`` engine phases and
    ``counts`` the exact counters read at layer boundaries.
    """

    def __init__(self) -> None:
        self.parent = array("i")
        self.name: list[str] = []
        self.tag: list[str] = []
        self.t0 = array("d")
        self.t1 = array("d")
        self.phases: list[tuple[int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.t0)

    def current(self) -> int:
        """Id of the innermost open span (``-1`` when none is open)."""
        return self._stack[-1] if self._stack else -1

    def open(self, name: str, tag: str) -> int:
        sid = len(self.t0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name)
        self.tag.append(tag)
        self.t1.append(0.0)
        self._stack.append(sid)
        self.t0.append(clock())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        sid = self.open(name, tag)
        try:
            yield
        finally:
            self.close(sid)

    def wrap(
        self,
        fn: Callable,
        name: str,
        tag: str,
        on_exit: Callable[[tuple, dict, BaseException | None], None] | None = None,
        name_of: Callable[[tuple, dict], str] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``on_exit`` sees the call's arguments."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = tracer.open(name_of(args, kwargs) if name_of else name, tag)
            exc: BaseException | None = None
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.close(sid)
                if on_exit is not None:
                    on_exit(args, kwargs, exc)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write(self, fh: Any) -> None:
        """Spans, then phases, as JSON lines."""
        for row in zip(range(len(self)), self.parent, self.name, self.tag, self.t0, self.t1):
            fh.write(json.dumps(row) + "\n")
        for run_sid, phase, t0, t1 in self.phases:
            fh.write(json.dumps({"phase": phase, "run": run_sid, "t0": t0, "t1": t1}) + "\n")


# ------------------------------------------------------------ aggregation


def self_times(parent: Sequence[int], t0: Sequence[float], t1: Sequence[float]) -> list[float]:
    """Per-span self time: duration minus the durations of direct children.

    Spans of one thread nest strictly, so the children of a span never
    overlap each other and their durations add up to the time they cover.
    """
    out = [b - a for a, b in zip(t0, t1)]
    for p, d in zip(parent, list(out)):
        if p >= 0:
            out[p] -= d
    return out


def phase_self_times(
    parent: Sequence[int], t0: Sequence[float], t1: Sequence[float],
    phases: list[tuple[int, str, float, float]],
) -> dict[str, float]:
    """Engine phase time net of the child spans that ran inside it.

    A direct child of the run span belongs to the phase whose interval
    holds the child's midpoint (phase bounds are read a few clock ticks
    after the phase ends, so containment is tested on midpoints).
    """
    run_ids = {p[0] for p in phases}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for p, a, b in zip(parent, t0, t1):
        if p in run_ids:
            children[p].append(((a + b) / 2, b - a))
    mids: dict[int, list[float]] = {}
    prefix: dict[int, list[float]] = {}
    for sid, kids in children.items():
        kids.sort()
        mids[sid] = [m for m, _ in kids]
        acc = [0.0]
        for _, d in kids:
            acc.append(acc[-1] + d)
        prefix[sid] = acc
    out: dict[str, float] = defaultdict(float)
    for sid, phase, a, b in phases:
        covered = 0.0
        if sid in mids:
            lo = bisect.bisect_left(mids[sid], a)
            hi = bisect.bisect_right(mids[sid], b)
            covered = prefix[sid][hi] - prefix[sid][lo]
        out[phase] += (b - a) - covered
    return dict(out)


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Raw per-tag sums for what ``tracer`` holds.

    Keys: ``self:<tag>`` (self seconds), ``calls:<tag>`` (span count),
    ``incl:<name>`` (inclusive seconds of ``experiments`` spans),
    ``phase:<phase>`` (net phase seconds) and every exact counter.
    """
    own = self_times(tracer.parent, tracer.t0, tracer.t1)
    out: dict[str, float] = defaultdict(float)
    for i, (tag, s) in enumerate(zip(tracer.tag, own)):
        out["self:" + tag] += s
        out["calls:" + tag] += 1
        if tag == "experiments":
            out["incl:" + tracer.name[i]] += tracer.t1[i] - tracer.t0[i]
    phases = phase_self_times(tracer.parent, tracer.t0, tracer.t1, tracer.phases)
    for phase, s in phases.items():
        out["phase:" + phase] += s
    out.update(tracer.counts)
    return dict(out)


# ---------------------------------------------------------- installation


def _public_functions(module_name: str) -> list[tuple[str, Callable]]:
    mod = importlib.import_module(module_name)
    return [
        (name, obj)
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module_name
        and not name.startswith("_")
    ]


def _node_classes() -> list[type]:
    from repro.sim.node import Node

    seen: list[type] = []
    todo = list(Node.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in seen and cls.__module__.startswith("repro."):
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _callback_tag(cls: type) -> str:
    pkg = cls.__module__.split(".")[1]
    if pkg == "faults":
        return "faults.reliable"
    if pkg in ("counting", "arrow"):
        return pkg + ".callback"
    return "protocol.callback"


#: Every package whose protocol nodes or runners the workloads reach.
PACKAGES = (
    "repro.topology", "repro.tree", "repro.sim", "repro.core", "repro.counting",
    "repro.arrow", "repro.faults", "repro.obs", "repro.resilience", "repro.tsp",
    "repro.bounds", "repro.adding", "repro.directory", "repro.multicast",
    "repro.mutex", "repro.experiments",
)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def __bool__(self) -> bool:
        return bool(self._saved)

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextmanager
def network_tally() -> Iterator[dict[str, list[int]]]:
    """Sum the sim tuple of every fault-free network, per experiment id.

    Yields ``{exp_id: [rounds, messages_sent, link_wait, total_delay,
    ops]}`` filled while the block runs ``run_suite``.  A network counts
    when it was built without a fault plan and runs unwrapped nodes.
    """
    import repro.experiments.executor as executor
    from repro.faults.reliable import ReliableNode
    from repro.sim.network import SynchronousNetwork

    tally: dict[str, list[int]] = {}
    faulty: set[int] = set()
    current = [""]
    patches = Patches()
    init = SynchronousNetwork.__dict__["__init__"]
    run = SynchronousNetwork.__dict__["run"]
    run_cell = executor.run_cell

    def net_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        if kwargs.get("faults") is not None:
            faulty.add(id(self))
        else:
            faulty.discard(id(self))

    def net_run(self: Any, *args: Any, **kwargs: Any) -> Any:
        stats = run(self, *args, **kwargs)
        node = self.node(self.node_ids[0])
        if id(self) not in faulty and not isinstance(node, ReliableNode):
            row = tally.setdefault(current[0], [0, 0, 0, 0, 0])
            for i, value in enumerate((stats.rounds, stats.messages_sent,
                                       stats.total_link_wait, self.delays.total_delay(),
                                       len(self.delays))):
                row[i] += value
        return stats

    def cell(exp_id: str, *args: Any, **kwargs: Any) -> Any:
        current[0] = exp_id
        return run_cell(exp_id, *args, **kwargs)

    patches.set(SynchronousNetwork, "__init__", net_init)
    patches.set(SynchronousNetwork, "run", net_run)
    patches.set(executor, "run_cell", cell)
    try:
        yield tally
    finally:
        patches.restore()


class Instrumentation:
    """Installs and removes the span wrappers for one :class:`Tracer`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches = Patches()

    # -- patching helpers ------------------------------------------------

    def _function(self, fn: Callable, tag: str, **kw: Any) -> None:
        """Wrap a module-level function everywhere ``repro`` refers to it."""
        wrapped = self.tracer.wrap(fn, fn.__name__, tag, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.set(mod, attr, wrapped)

    def _method(self, cls: type, attr: str, tag: str, **kw: Any) -> None:
        fn = cls.__dict__[attr]
        self._patches.set(cls, attr, self.tracer.wrap(fn, f"{cls.__name__}.{attr}", tag, **kw))

    # -- the layer table -------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point (idempotent only after :meth:`uninstall`)."""
        if self._patches:
            raise RuntimeError("instrumentation already installed")
        for pkg in PACKAGES:
            importlib.import_module(pkg)
        import repro.experiments.executor as executor
        from repro.arrow.runner import ArrowResult
        from repro.faults.injector import FaultInjector
        from repro.faults.reliable import ReliableNode, RetryBudgetExceeded
        from repro.obs import MetricsRegistry, PhaseProfiler
        from repro.resilience import MonitorSet
        from repro.sim.network import SynchronousNetwork
        from repro.sim.trace import EventTrace

        tracer = self.tracer
        counts = tracer.counts
        counting_nodes = tuple(
            c for c in _node_classes() if _callback_tag(c) == "counting.callback"
        )

        class SpanProfiler(PhaseProfiler):
            """PhaseProfiler that also hands each phase to the tracer."""

            def add(self, phase: str, seconds: float) -> None:
                PhaseProfiler.add(self, phase, seconds)
                if phase in SIM_PHASES:
                    end = clock()
                    tracer.phases.append((tracer.current(), phase, end - seconds, end))

            def __deepcopy__(self, memo: dict) -> "SpanProfiler":
                # Checkpoints deep-copy the network; the copy keeps timing
                # into the same profiler instead of copying every span.
                return self

        init = SynchronousNetwork.__dict__["__init__"]

        def net_init(self: Any, *args: Any, **kwargs: Any) -> None:
            if kwargs.get("profiler") is None:
                kwargs["profiler"] = SpanProfiler()
            init(self, *args, **kwargs)

        net_init.__name__ = "__init__"
        self._patches.set(SynchronousNetwork, "__init__",
                  tracer.wrap(net_init, "SynchronousNetwork.__init__", "sim.init"))

        def after_run(args: tuple, kwargs: dict, exc: BaseException | None) -> None:
            net = args[0]
            stats = net.stats
            counts["sim.msgs_delivered"] += stats.messages_delivered
            counts["sim.rounds_executed"] += net.rounds_executed
            counts["sim.link_wait"] += stats.total_link_wait
            node = net.node(net.node_ids[0])
            inner = getattr(node, "inner", node)
            if isinstance(inner, counting_nodes):
                counts["counting.msgs_delivered"] += stats.messages_delivered
            if isinstance(node, ReliableNode) and net.metrics is not None:
                counts["faults.observed_msgs_sent"] += stats.messages_sent
            if isinstance(exc, RetryBudgetExceeded):
                counts["faults.retry_exhausted"] += 1

        for attr in ("run", "resume"):
            self._method(SynchronousNetwork, attr, "sim.run", on_exit=after_run)

        for cls in _node_classes():
            for attr in CALLBACKS:
                if attr in cls.__dict__:
                    self._method(cls, attr, _callback_tag(cls))

        for mod in ("repro.topology.graphs", "repro.topology.spanning",
                    "repro.topology.hamilton"):
            for _, fn in _public_functions(mod):
                self._function(fn, "topology.build")
        for name, fn in _public_functions("repro.topology.properties"):
            self._function(fn, "topology.bfs" if name == "bfs_distances" else "topology.props")

        for pkg in ("repro.counting", "repro.arrow"):
            tag = pkg.split(".")[1] + ".runner"
            for mod_name in _submodules(pkg):
                for name, fn in _public_functions(mod_name):
                    if name.startswith("run_") or name == "arrow_vs_tsp":
                        self._function(fn, tag)
        for _, fn in _public_functions("repro.faults.runners"):
            self._function(fn, "faults.runner")

        for _, fn in _public_functions("repro.core.verify"):
            self._function(fn, "core.verify")
        self._method(ArrowResult, "order", "core.verify")
        for _, fn in _public_functions("repro.core.adversary"):
            self._function(fn, "core.search")

        for attr in ("tick", "crashed", "recovery_round", "on_link_entry"):
            self._method(FaultInjector, attr, "faults.injector")
        self._method(EventTrace, "record", "obs.trace")

        def count_inc(args: tuple, kwargs: dict, exc: BaseException | None) -> None:
            n = args[2] if len(args) > 2 else kwargs.get("n", 1)
            counts["metric:" + args[1]] += n

        self._method(MetricsRegistry, "inc", "obs.metrics", on_exit=count_inc)
        for attr in ("set_gauge", "observe", "sample"):
            self._method(MetricsRegistry, attr, "obs.metrics")

        def count_round(args: tuple, kwargs: dict, exc: BaseException | None) -> None:
            counts["resilience.rounds_checked"] += 1

        self._method(MonitorSet, "on_round", "resilience.monitors", on_exit=count_round)
        for attr in ("on_complete", "on_finish"):
            self._method(MonitorSet, attr, "resilience.monitors")

        for pkg in ("repro.tsp", "repro.bounds"):
            for mod_name in _submodules(pkg):
                for _, fn in _public_functions(mod_name):
                    self._function(fn, pkg.split(".")[1])

        self._patches.set(executor, "run_cell", tracer.wrap(
            executor.run_cell, "run_cell", "experiments",
            name_of=lambda args, kwargs: "experiments." + args[0],
        ))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        self._patches.restore()


def _submodules(pkg: str) -> list[str]:
    mod = importlib.import_module(pkg)
    names = [pkg]
    for info in pkgutil.iter_modules(mod.__path__):
        names.append(f"{pkg}.{info.name}")
        importlib.import_module(names[-1])
    return names
