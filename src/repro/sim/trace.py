"""Structured event tracing.

Tests and examples use the trace to assert on *what happened* (deliveries,
detections, revocations) without reaching into private state. The recorder
is also the unified event stream the observability layer
(:mod:`repro.obs`) writes its span begin/end markers into, and the JSONL
exporter reads back out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List


@dataclass(frozen=True)
class TraceEvent:
    """One recorded happening: a kind, a timestamp, and free-form fields."""

    time: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Dict-style access to the event's fields."""
        return self.fields.get(key, default)

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form: ``{"time": ..., "kind": ..., **fields}``."""
        out: Dict[str, Any] = {"time": self.time, "kind": self.kind}
        out.update(self.fields)
        return out


class TraceRecorder:
    """Append-only in-memory trace with simple filtering.

    Args:
        enabled: when False, :meth:`record` is a no-op.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[TraceEvent] = []

    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Append an event (a no-op when the recorder is disabled)."""
        if not self.enabled:
            return
        self._events.append(TraceEvent(time=time, kind=kind, fields=fields))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All events whose kind equals ``kind``."""
        return [e for e in self._events if e.kind == kind]

    def count(self, kind: str) -> int:
        """Number of events of the given kind."""
        return len(self.of_kind(kind))

    def where(self, kind: str, **match: Any) -> List[TraceEvent]:
        """Events of ``kind`` whose fields contain every ``match`` item."""
        out = []
        for event in self.of_kind(kind):
            if all(event.get(k) == v for k, v in match.items()):
                out.append(event)
        return out

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()
