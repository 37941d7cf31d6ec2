"""Structured trace of schedule execution events.

Attach a :class:`Tracer` to any execution engine (``tracer=`` is accepted
uniformly by :class:`~repro.runtime.SimEngine`,
:class:`~repro.runtime.ThreadedEngine` and
:class:`~repro.runtime.MultiprocessEngine`, or via
:func:`~repro.runtime.create_engine`) to record the unified event
vocabulary of :mod:`repro.trace.events`: operation bodies, token
movement with byte sizes, serialization, flow-control stalls and acks.
Traces are the raw material for the text timelines in
:mod:`repro.trace.timeline`, for the Chrome-trace/Perfetto export, and
for debugging scheduling behaviour (e.g. visually confirming that
computation and communication overlap).

Timestamps are virtual seconds on the simulated engine and monotonic
wall-clock seconds on the real-execution engines.  On the multiprocess
engine each kernel process records into its own tracer; the buffers are
shipped to the console kernel on flush/shutdown and merged (with a
``pid`` field naming the kernel) into the tracer the caller attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    kind: str
    fields: Dict[str, Any]

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None


class Tracer:
    """Append-only event recorder with simple query helpers."""

    def __init__(self, capacity: Optional[int] = None):
        """*capacity* bounds memory; oldest events are dropped beyond it."""
        self.events: List[TraceEvent] = []
        self.capacity = capacity
        self.dropped = 0

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        """Record an event (engine hook)."""
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.events.pop(0)
            self.dropped += 1
        self.events.append(TraceEvent(time, kind, fields))

    def merge(
        self,
        events: Iterable[Tuple[float, str, Dict[str, Any]]],
        pid: Optional[str] = None,
    ) -> int:
        """Fold raw ``(time, kind, fields)`` records into this tracer.

        Used for cross-process aggregation: each kernel ships its buffer
        as plain tuples and the console merges them here, stamping *pid*
        (the kernel name) on every event that does not carry one.
        Returns the number of events merged.
        """
        n = 0
        for time, kind, fields in events:
            if pid is not None and "pid" not in fields:
                fields = {**fields, "pid": pid}
            self.emit(time, kind, **fields)
            n += 1
        return n

    def dump(self) -> List[Tuple[float, str, Dict[str, Any]]]:
        """The buffer as plain tuples the token codec carries."""
        return [(ev.time, ev.kind, ev.fields) for ev in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def filter(
        self,
        kind: Optional[str] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        """Events matching *kind* and/or an arbitrary predicate."""
        out = []
        for ev in self.events:
            if kind is not None and ev.kind != kind:
                continue
            if predicate is not None and not predicate(ev):
                continue
            out.append(ev)
        return out

    def count(self, kind: str) -> int:
        return sum(1 for ev in self.events if ev.kind == kind)

    def kinds(self) -> Dict[str, int]:
        """Event counts per kind (the parity-test fingerprint)."""
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def pids(self) -> set:
        """Distinct ``pid`` fields seen (kernel names on merged traces)."""
        return {ev.fields["pid"] for ev in self.events if "pid" in ev.fields}

    def span(self) -> tuple[float, float]:
        """(first, last) event times; (0, 0) when empty."""
        if not self.events:
            return (0.0, 0.0)
        return (self.events[0].time, self.events[-1].time)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
