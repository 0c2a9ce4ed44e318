"""Optional event tracing for debugging and protocol validation.

Tracing is off by default (the engine takes ``trace=None``) because a
trace of a Theta(n^2)-round run is large.  Tests use it to assert engine
invariants such as "no node received more than ``recv_capacity`` messages
in any round".
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterator, NamedTuple


class TraceEvent(NamedTuple):
    """One engine event (an immutable record; a traced run makes one per
    send, delivery and enqueue, so it is a plain tuple underneath).

    Attributes:
        kind: ``"enqueue"`` (protocol called send), ``"send"`` (message
            entered a link), ``"deliver"`` (message processed by receiver),
            or ``"complete"`` (operation finished).  With a fault plan
            attached the injector adds ``"drop"``, ``"duplicate"``,
            ``"crash"`` and ``"recover"`` events.
        round: round in which the event happened.
        data: event-specific fields (src, dst, kind of message, ...).
    """

    kind: str
    round: int
    data: dict[str, Any]


_new_event = tuple.__new__


class EventTrace:
    """An append-only list of :class:`TraceEvent` with query helpers."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record(self, event: str, round_: int, **data: Any) -> None:
        """Append one event (called by the engine).

        ``event`` is the engine event type; ``data`` may carry a ``kind``
        key for the *message* kind without colliding.
        """
        # tuple.__new__ skips the NamedTuple's Python-level constructor.
        self.events.append(_new_event(TraceEvent, (event, round_, data)))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def slice(self, start_round: int, end_round: int | None = None) -> "EventTrace":
        """A new trace holding the events of rounds ``[start, end]``.

        ``end_round=None`` means "through the last recorded round".
        Event objects are shared (they are immutable), order is preserved.
        Violation reports and chaos reproducers embed these windows.
        """
        out = EventTrace()
        out.events = [
            e
            for e in self.events
            if e.round >= start_round
            and (end_round is None or e.round <= end_round)
        ]
        return out

    def to_json(self) -> str:
        """Serialize to a JSON string round-tripping via :meth:`from_json`.

        Tuples inside event data (e.g. arrow op ids like ``("op", 3)``)
        are tagged as ``{"__tuple__": [...]}`` so the round trip restores
        them as tuples, keeping replayed traces ``==``-comparable to live
        ones.
        """
        import json

        def enc(value: Any) -> Any:
            if isinstance(value, tuple):
                return {"__tuple__": [enc(v) for v in value]}
            if isinstance(value, list):
                return [enc(v) for v in value]
            if isinstance(value, dict):
                return {k: enc(v) for k, v in value.items()}
            return value

        return json.dumps(
            [[e.kind, e.round, enc(e.data)] for e in self.events],
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "EventTrace":
        """Rebuild a trace serialized by :meth:`to_json`."""
        import json

        def dec(value: Any) -> Any:
            if isinstance(value, dict):
                if set(value) == {"__tuple__"}:
                    return tuple(dec(v) for v in value["__tuple__"])
                return {k: dec(v) for k, v in value.items()}
            if isinstance(value, list):
                return [dec(v) for v in value]
            return value

        out = cls()
        out.events = [
            TraceEvent(kind, round_, dec(data))
            for kind, round_, data in json.loads(text)
        ]
        return out

    def fault_events(self) -> list[TraceEvent]:
        """All injected-fault events (drop/duplicate/crash/recover), in order."""
        kinds = ("drop", "duplicate", "crash", "recover")
        return [e for e in self.events if e.kind in kinds]

    def last_round(self) -> int:
        """The latest round any event was recorded in (0 when empty)."""
        return max((e.round for e in self.events), default=0)

    def deliveries_per_node_round(self) -> Counter[tuple[int, int]]:
        """Counter ``(node, round) -> deliveries`` for capacity checks."""
        c: Counter[tuple[int, int]] = Counter()
        for e in self.of_kind("deliver"):
            c[(e.data["dst"], e.round)] += 1
        return c

    def sends_per_node_round(self) -> Counter[tuple[int, int]]:
        """Counter ``(node, round) -> link entries`` for capacity checks."""
        c: Counter[tuple[int, int]] = Counter()
        for e in self.of_kind("send"):
            c[(e.data["src"], e.round)] += 1
        return c

    def max_deliveries_in_a_round(self) -> int:
        """Largest number of deliveries any node processed in one round."""
        per = self.deliveries_per_node_round()
        return max(per.values(), default=0)

    def max_sends_in_a_round(self) -> int:
        """Largest number of link entries any node made in one round."""
        per = self.sends_per_node_round()
        return max(per.values(), default=0)
