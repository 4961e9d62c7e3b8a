"""Synchronization and communication primitives for simulation processes.

Only the primitives the reproduction actually needs are provided:

* :class:`Queue` — an unbounded FIFO channel (used for message passing
  between agents, NIC receive queues, parasite pipes, ...).
* :class:`Gate` — a reusable open/closed barrier (used by the network input
  blocking path: while the gate is closed, deliveries queue up).

All primitives are fair: waiters are served strictly in arrival order, which
keeps runs deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import Engine, Event, SimulationError

__all__ = ["Gate", "Queue", "Semaphore"]


class Queue:
    """Unbounded FIFO channel between processes.

    ``put`` never blocks.  ``get`` returns an :class:`Event` that triggers
    with the oldest item as soon as one is available (immediately if the
    queue is non-empty).
    """

    def __init__(self, engine: Engine, name: str = "queue") -> None:
        self.engine = engine
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        """Snapshot of queued items (oldest first); for inspection/tests."""
        return tuple(self._items)

    def put(self, item: Any) -> None:
        """Append *item*; wakes the oldest waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that triggers with the next item."""
        event = Event(self.engine)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def get_nowait(self) -> Any:
        """Pop the next item immediately; raises if empty."""
        if not self._items:
            raise SimulationError(f"get_nowait() on empty queue {self.name!r}")
        return self._items.popleft()

    def clear(self) -> list[Any]:
        """Drain and return all queued items (waiters stay blocked)."""
        drained = list(self._items)
        self._items.clear()
        return drained


class Semaphore:
    """A counting semaphore with fair FIFO handoff.

    Used to model per-process CPU parallelism: a process with N threads can
    run at most N workload slices concurrently, so a single-threaded server
    (Redis, Node) saturates one core no matter how many connections it
    serves, while a 4-thread PARSEC workload genuinely uses four.
    """

    def __init__(self, engine: Engine, capacity: int, name: str = "sem") -> None:
        if capacity < 1:
            raise SimulationError(f"semaphore {name!r} needs capacity >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    def acquire(self) -> Event:
        event = Event(self.engine)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(None)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle semaphore {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter.
            self._waiters.popleft().succeed(None)
        else:
            self._in_use -= 1


class Gate:
    """A reusable open/closed barrier.

    While open, :meth:`wait` completes immediately.  While closed, waiters
    accumulate and are released together (in arrival order) when the gate
    opens.  This models the `sch_plug` qdisc semantics: packets pass through
    an open plug and queue behind a closed one.
    """

    def __init__(self, engine: Engine, name: str = "gate", open_: bool = True) -> None:
        self.engine = engine
        self.name = name
        self._open = open_
        self._waiters: deque[Event] = deque()

    @property
    def is_open(self) -> bool:
        return self._open

    @property
    def waiting(self) -> int:
        """Number of processes currently blocked on the gate."""
        return len(self._waiters)

    def close(self) -> None:
        self._open = False

    def open(self) -> None:
        """Open the gate and release all queued waiters in order."""
        self._open = True
        while self._waiters and self._open:
            self._waiters.popleft().succeed(None)

    def wait(self) -> Event:
        event = Event(self.engine)
        if self._open:
            event.succeed(None)
        else:
            self._waiters.append(event)
        return event
