"""Structured protocol tracing.

A :class:`Tracer` attached to the engine records timestamped protocol
events (freeze/thaw, collect, state send, ack, output release, recovery
steps).  Tests use it to assert *sequence conformance* — that the
implementation performs the paper's protocol steps in the paper's order —
and ``python -m repro trace`` prints a human-readable timeline.

Tracing is off unless a tracer is installed, and emitting costs two
attribute checks (the tracer and the engine's observer) when off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["TraceEvent", "Tracer", "install_tracer", "trace"]


@dataclass
class TraceEvent:
    at_us: int
    category: str
    name: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.at_us / 1000:10.3f} ms] {self.category:<10} {self.name:<18} {extras}"


class Tracer:
    """An append-only event log with simple query helpers."""

    def __init__(self, limit: int = 100_000) -> None:
        self.events: list[TraceEvent] = []
        self.limit = limit
        #: Number of events discarded because ``limit`` was reached.  A
        #: non-zero value means the log (and any digest over it) is
        #: truncated — consumers must surface this rather than silently
        #: comparing partial streams.
        self.dropped = 0

    def emit(self, at_us: int, category: str, name: str, **detail: Any) -> None:
        if len(self.events) < self.limit:
            self.events.append(TraceEvent(at_us, category, name, detail))
        else:
            self.dropped += 1

    # -- queries -----------------------------------------------------------
    def select(self, category: str | None = None, name: str | None = None,
               **detail_filter: Any) -> list[TraceEvent]:
        out = []
        for event in self.events:
            if category is not None and event.category != category:
                continue
            if name is not None and event.name != name:
                continue
            if any(event.detail.get(k) != v for k, v in detail_filter.items()):
                continue
            out.append(event)
        return out

    def names(self, category: str | None = None, **detail_filter: Any) -> list[str]:
        return [e.name for e in self.select(category, **detail_filter)]

    def timeline(self, category: str | None = None) -> str:
        return "\n".join(str(e) for e in self.select(category))


def install_tracer(engine: "Engine", limit: int = 100_000) -> Tracer:
    """Attach a tracer to *engine*; returns it."""
    tracer = Tracer(limit)
    engine.tracer = tracer
    return tracer


def trace(engine: "Engine", category: str, name: str, **detail: Any) -> None:
    """Emit an event if *engine* has a tracer installed (cheap no-op
    otherwise).  The engine's observer sees the category whether or not a
    tracer is installed, so profile runs need no tracer."""
    observer = engine._observer
    if observer is not None:
        observer.on_trace(category)
    tracer = engine.tracer
    if tracer is not None:
        tracer.emit(engine.now, category, name, **detail)
