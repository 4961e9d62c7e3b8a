"""Core discrete-event simulation engine.

The engine is a classic event-heap design: a priority queue of
``(time, priority, sequence, Event)`` entries.  Simulation *processes* are
Python generators that ``yield`` :class:`Event` objects; the engine resumes a
process when the event it waits on triggers.  The design follows SimPy's
proven coroutine protocol but is intentionally smaller: no real-time mixing,
no environment subclassing, integer-microsecond time only.  A timer nothing
waits on skips the event altogether: :meth:`Engine.call_later` puts a
:class:`Call` (the callback and its arguments) in the heap entry instead.
A triggered :class:`AnyOf` releases the constituents that
have not fired yet: each keeps a bare defusing callback instead of one that
holds the condition, so a losing timeout left in the heap does not keep the
condition, its events and their values alive.

Determinism guarantees
----------------------

* Events scheduled for the same timestamp fire in schedule order (a global
  monotonically increasing sequence number breaks ties).
* No wall-clock or OS entropy is consulted anywhere; randomness comes from
  :class:`repro.sim.rng.RngRegistry` streams seeded by the experiment.

These two properties make every experiment in this repository exactly
replayable from its seed, which the fault-injection campaign (50 seeded runs
per benchmark, paper §VII-A) relies on.

Schedule-independence checking and observers
--------------------------------------------

The insertion-order tie-break is a *default*, not something protocol code
may rely on.  :meth:`Engine.set_tiebreak` makes that a checked property
(see ``docs/races.md``): it installs a policy that deterministically
permutes the order of same-timestamp events scheduled from *different*
contexts (a context is one callback invocation; events scheduled by the
same context keep their relative order, which preserves per-sender FIFO).
The schedule fuzzer replays workloads under such permutations and diffs
their digests.

Instruments watch the run through one slot, ``Engine._observer``, set by
:meth:`Engine.observe`.  An :class:`Observer` receives every hook the
engine and the protocol emit: scheduling, dispatch, process resumption,
condition joins, shared-state accesses and trace categories.  The
happens-before :class:`repro.analysis.races.RaceDetector` and the
:class:`repro.sim.profiler.SimProfiler` are observers; they override only
the hooks they use.  Every hook site reads the slot once and costs one
attribute check when no observer is installed.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator, Iterable
from typing import Any, Hashable, TypeVar

__all__ = [
    "AnyOf",
    "Call",
    "Engine",
    "Event",
    "Interrupt",
    "Observer",
    "Process",
    "SimulationError",
    "Timeout",
]

_O = TypeVar("_O", bound="Observer | None")

# Priorities for same-timestamp ordering.  URGENT is used internally for
# process resumption bookkeeping so that e.g. an interrupt scheduled "now"
# lands before ordinary events scheduled "now".
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Raised for misuse of the engine (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process may catch it and continue; ``cause`` carries an
    arbitrary payload describing why the interrupt happened (e.g. a fault
    injector signalling a host crash).
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Observer:
    """The engine's one hook protocol; every hook is a no-op here.

    Install a subclass with :meth:`Engine.observe` and override only the
    hooks it needs.  The engine calls the ``on_*`` hooks around scheduling,
    dispatch and process resumption; :func:`repro.sim.access.record_access`
    calls :meth:`on_access` and :func:`repro.sim.trace.trace` calls
    :meth:`on_trace`.
    """

    def on_scheduled(self, event: Event | Call) -> None:
        """*event* was pushed on the heap."""

    def on_event_begin(self, event: Event | Call) -> None:
        """*event* was popped; its callbacks are about to run."""

    def on_event_end(self, event: Event | Call) -> None:
        """*event*'s callbacks returned."""

    def on_resume(self, process: Process, event: Event) -> None:
        """*process* is about to be resumed by *event*."""

    def on_resume_end(self, process: Process) -> None:
        """*process* yielded a pending event or finished."""

    def on_consume(self, process: Process, event: Event) -> None:
        """*process* yielded the already-processed *event* and goes on."""

    def on_condition_join(self, condition: Event, event: Event) -> None:
        """Constituent *event* was folded into an AnyOf *condition*."""

    def on_access(
        self, obj: Any, field: str, kind: str, key: Hashable, site: str
    ) -> None:
        """Shared state was accessed (see :mod:`repro.sim.access`)."""

    def on_trace(self, category: str) -> None:
        """A protocol trace event of *category* was emitted."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it becomes *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, at which point it is scheduled on the
    engine heap and its callbacks run at the current simulation time.  After
    the callbacks run the event is *processed*.
    """

    __slots__ = (
        "engine",
        "callbacks",
        "_value",
        "_ok",
        "_scheduled",
        "_defused",
        "_cancelled",
        "_vc",
    )

    #: Sentinel for "not yet triggered".
    PENDING = object()

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = Event.PENDING
        self._ok: bool = True
        self._scheduled = False
        self._defused = False
        self._cancelled = False
        # Vector clock of the context that scheduled this event; set by the
        # race detector (when installed) at _schedule() time, else stays None.
        self._vc: Any = None

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._value is not Event.PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event.PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not Event.PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.engine._schedule(self, NORMAL, 0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see *exception* raised."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not Event.PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.engine._schedule(self, NORMAL, 0)
        return self

    def cancel(self) -> None:
        """Void a scheduled event: its callbacks never run and it does not
        advance the clock when popped.  Used for timers that lose their
        purpose (e.g. a TCP retransmission timer once the data is acked) —
        without cancellation, dangling timers would drag run-to-completion
        simulations out to their expiry times.
        """
        self._cancelled = True

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the engine.

        A failed event with no waiting process would otherwise surface its
        exception out of :meth:`Engine.step` — silently dropping failures is
        a debugging nightmare the engine refuses to allow by default.
        """
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if not self.triggered
            else ("processed" if self.processed else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires *delay* microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # Flat body instead of Event.__init__ + _schedule: timeouts are the
        # most-constructed object in the simulator.  With no tie-break
        # policy and no observer installed, _schedule would push exactly
        # this entry (tie-break key 0) and run no hook.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._cancelled = False
        self._vc = None
        self.delay = delay = int(delay)
        if engine._tiebreak is None and engine._observer is None:
            self._scheduled = True
            engine._seq += 1
            heapq.heappush(
                engine._heap, (engine._now + delay, NORMAL, 0, engine._seq, self)
            )
        else:
            self._scheduled = False
            engine._schedule(self, NORMAL, delay)


class Call:
    """A one-shot callback timer made by :meth:`Engine.call_later`.

    Not an :class:`Event`: nothing can wait on it and it carries no value.
    It sits on the engine heap under the same ``(time, NORMAL, tie-break
    key, sequence)`` key a :class:`Timeout` would get and runs ``fn(*args)``
    as one callback context, exactly like a timeout with one callback — but
    without the callback list, the closure and the event state.  An
    observer sees it through the same hooks as any event.
    """

    __slots__ = ("fn", "args", "_cancelled", "_vc")

    # Never fails, so _dispatch's unhandled-failure check passes it by.
    _ok = True

    def __init__(self, fn: Callable[..., Any], args: tuple[Any, ...]) -> None:
        self.fn = fn
        self.args = args
        self._cancelled = False
        # Vector clock of the scheduling context (race detector only).
        self._vc: Any = None

    def cancel(self) -> None:
        """Drop the call: ``fn`` never runs and the entry does not advance
        the clock when popped."""
        self._cancelled = True


class Initialize(Event):
    """Internal: kick-starts a freshly created :class:`Process`."""

    __slots__ = ()

    def __init__(self, engine: "Engine", process: "Process") -> None:
        super().__init__(engine)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        self.engine._schedule(self, URGENT, 0)


class Process(Event):
    """A running simulation coroutine.

    Wraps a generator that yields :class:`Event` instances.  The process is
    itself an event that triggers when the generator returns (successfully,
    with the generator's return value) or raises (failed, with the
    exception).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self, engine: "Engine", generator: Generator[Any, Any, Any], name: str = ""
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(engine)
        self._generator = generator
        self._target: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        self._target = Initialize(engine, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is Event.PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        twice before it resumes queues both interrupts.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self.engine._active_process is self:
            raise SimulationError("process cannot interrupt itself")
        failure = Event(self.engine)
        failure._ok = False
        failure._value = Interrupt(cause)
        failure._defused = True
        failure.callbacks.append(self._deliver_interrupt)
        self.engine._schedule(failure, URGENT, 0)

    def _deliver_interrupt(self, failure: Event) -> None:
        """Deliver a queued interrupt, detaching from the current target.

        Delivery is deferred to the interrupt event's own firing so that a
        process interrupted twice in one instant, or one that finished in
        the meantime, is handled correctly: a dead process swallows the
        interrupt, and the wait-target callback is unregistered exactly once
        per delivery.
        """
        if not self.is_alive:
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._resume(failure)

    # -- engine plumbing --------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with *event*'s outcome."""
        self.engine._active_process = self
        observer = self.engine._observer
        if observer is not None:
            observer.on_resume(self, event)
        schedule = self.engine._schedule
        while True:
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    # The event failed; propagate into the coroutine.
                    event._defused = True
                    next_target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                schedule(self, NORMAL, 0)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                schedule(self, NORMAL, 0)
                break

            if not isinstance(next_target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {next_target!r}"
                )
                # Deliver the misuse as a crash of this process.
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:  # pragma: no cover - unusual
                    self._ok = True
                    self._value = stop.value
                except BaseException as exc2:
                    self._ok = False
                    self._value = exc2
                schedule(self, NORMAL, 0)
                break

            if next_target.callbacks is None:
                # Already processed: resume immediately with its value.
                event = next_target
                if observer is not None:
                    # The process still happens-after the consumed event.
                    observer.on_consume(self, event)
                if not event._ok:
                    event._defused = True
                continue
            next_target.callbacks.append(self._resume)
            self._target = next_target
            break
        self.engine._active_process = None
        if observer is not None:
            observer.on_resume_end(self)


def _defuse(event: Event) -> None:
    """A released condition's callback on a constituent that fired late."""
    if not event._ok:
        event._defused = True


class AnyOf(Event):
    """Triggers when any constituent event triggers.

    Value is a dict of the constituent events that had triggered by then,
    mapped to their values.  A failed constituent fails the condition.
    """

    __slots__ = ("events",)

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events: tuple[Event, ...] = tuple(events)
        for ev in self.events:
            if ev.engine is not engine:
                raise SimulationError("condition mixes events from different engines")
        # Register after validation so a raise leaves no dangling callbacks.
        # Once triggered, a later constituent gets _defuse, as _release
        # would have left it.
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(_defuse if self.triggered else self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        # Fold the triggering constituent's causal clock into the
        # condition's, so the waiter happens-after it.
        observer = self.engine._observer
        if observer is not None:
            observer.on_condition_join(self, event)
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            # ``processed`` (callbacks ran), not ``triggered``: Timeout
            # pre-sets its value at construction, so ``triggered`` would
            # report not-yet-fired timeouts as done.
            self.succeed({ev: ev._value for ev in self.events if ev.processed})
        self._release()

    def _release(self) -> None:
        """Let go of the constituents still pending once this triggered.

        Each keeps one callback, :func:`_defuse` in place of ``_check``, so
        a late firing still runs one callback context (the same context
        serials and observer hooks) and still defuses a late failure (a
        losing process interrupted afterwards); but nothing pending refers
        back to the condition, its ``events`` or their values any more.
        """
        check = self._check
        for ev in self.events:
            callbacks = ev.callbacks
            if callbacks is not None:
                for i, callback in enumerate(callbacks):
                    if callback == check:
                        callbacks[i] = _defuse


class Engine:
    """The simulation clock and event loop."""

    def __init__(self) -> None:
        self._now: int = 0
        self._heap: list[tuple[int, int, int, int, Event | Call]] = []
        self._seq: int = 0
        self._active_process: Process | None = None
        # Monotonic id of the current callback context.  Incremented before
        # every callback invocation in step(); events scheduled by the same
        # callback share a context and keep their relative (FIFO) order even
        # under tie-break permutation.
        self._ctx_serial: int = 0
        # Same-timestamp tie-break policy (None = insertion order).  Must
        # expose ``key(ctx_serial) -> int``; the key slots between priority
        # and the insertion sequence in heap entries.
        self._tiebreak: Any = None
        # The one installed Observer (see observe()) or None.  Every hook
        # site costs one attribute check when None.
        self._observer: Observer | None = None
        # Instruments read directly by their hook functions, each None
        # when off: the protocol Tracer (repro.sim.trace.trace), the armed
        # FaultPlan (repro.sim.faults) and the ftcov coverage recorder
        # (repro.sim.faults.coverage_mark).
        self.tracer: Any = None
        self.fault_plan: Any = None
        self._ftcov: Any = None

    # -- instruments -------------------------------------------------------
    def observe(self, observer: _O) -> _O:
        """Install *observer* in the engine's one hook slot and return it;
        ``observe(None)`` removes the installed one.

        One observer at a time: installing a second raises.
        """
        if observer is not None and self._observer is not None:
            raise SimulationError(f"{self._observer!r} is already observing")
        self._observer = observer
        return observer

    @property
    def _profiler(self) -> Observer | None:
        # bench/worker.py's assert_untraced reads this name.
        return self._observer

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in integer microseconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    # -- event construction --------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def call_later(self, delay: int, fn: Callable[..., Any], *args: Any) -> Call:
        """Run ``fn(*args)`` *delay* microseconds from now; returns a
        cancellable :class:`Call`.

        The fire-and-forget form of ``timeout(delay).callbacks.append(...)``:
        same heap key, same single callback context, no event to wait on.
        """
        if delay < 0:
            raise SimulationError(f"negative call_later delay {delay}")
        call = Call(fn, args)
        self._seq += 1
        tiebreak = self._tiebreak
        key = 0 if tiebreak is None else tiebreak.key(self._ctx_serial)
        heapq.heappush(
            self._heap, (self._now + int(delay), NORMAL, key, self._seq, call)
        )
        observer = self._observer
        if observer is not None:
            observer.on_scheduled(call)
        return call

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        """Register *generator* as a new simulation process."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def set_tiebreak(self, policy: Any) -> None:
        """Install (or clear, with None) a same-timestamp tie-break policy.

        *policy* must expose ``key(ctx_serial: int) -> int``.  The key is
        computed per scheduling context, so events scheduled by one callback
        keep their mutual order; only the interleaving *between* contexts is
        permuted.  Priorities (URGENT before NORMAL) are always preserved.
        Affects only events scheduled after the call.
        """
        self._tiebreak = policy

    def _schedule(self, event: Event, priority: int, delay: int) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} is already scheduled")
        event._scheduled = True
        self._seq += 1
        tiebreak = self._tiebreak
        key = 0 if tiebreak is None else tiebreak.key(self._ctx_serial)
        heapq.heappush(self._heap, (self._now + delay, priority, key, self._seq, event))
        observer = self._observer
        if observer is not None:
            observer.on_scheduled(event)

    def peek(self) -> int | None:
        """Timestamp of the next live event, or None if idle.

        Cancelled events at the head of the heap are discarded here so they
        neither advance the clock nor stall ``run(until=...)``.
        """
        while self._heap and self._heap[0][4]._cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self) -> None:
        """Process one event off the heap (skipping cancelled ones)."""
        if self.peek() is None:
            raise SimulationError("step() on an empty event heap")
        when, _prio, _key, _seq, event = heapq.heappop(self._heap)
        self._dispatch(when, event)

    def _dispatch(self, when: int, event: Event | Call) -> None:
        """Advance the clock to *when* and run *event*'s callbacks.

        The single dispatch body shared by :meth:`step` and every
        :meth:`run` loop, so ordering semantics (context serials, observer
        hooks, failure surfacing) cannot drift between entry points.  A
        :class:`Call` runs as one callback context, like an event with one
        callback.
        """
        if when < self._now:  # pragma: no cover - heap invariant guard
            raise SimulationError("event heap went backwards in time")
        self._now = when
        observer = self._observer
        if observer is not None:
            observer.on_event_begin(event)
        if type(event) is Call:
            self._ctx_serial += 1
            event.fn(*event.args)
        else:
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                self._ctx_serial += 1
                callback(event)
        if observer is not None:
            observer.on_event_end(event)
        if not event._ok and not event._defused:
            # An unhandled failure: surface it rather than losing it.
            raise event._value

    def run(self, until: int | Event | None = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until the heap drains.
        * ``until=<int>`` — run until simulated time reaches that timestamp.
        * ``until=<Event>`` — run until the event is processed; returns its
          value (raising if it failed).
        """
        if until is None:
            # Run-to-drain hot path: exactly one heappop per heap entry.
            # The step()-based loop cost two head scans per event (peek in
            # the loop condition, peek again inside step) plus re-resolved
            # attribute lookups; hoisting the heap and heappop is the
            # PERF004 fix.
            heap = self._heap
            pop = heapq.heappop
            dispatch = self._dispatch
            while heap:
                when, _prio, _key, _seq, event = pop(heap)
                if event._cancelled:
                    continue
                dispatch(when, event)
            return None

        if isinstance(until, Event):
            sentinel = until
            while not sentinel.processed:
                next_at = self.peek()
                if next_at is None:
                    raise SimulationError(
                        "event heap drained before the awaited event triggered"
                    )
                _when, _prio, _key, _seq, event = heapq.heappop(self._heap)
                self._dispatch(next_at, event)
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value

        deadline = int(until)
        if deadline < self._now:
            raise SimulationError(f"run(until={deadline}) is in the past")
        # One head check per event: drop a cancelled head entry (as peek()
        # would), stop at the first live entry past the deadline, else pop
        # and dispatch exactly the entry checked.
        heap = self._heap
        pop = heapq.heappop
        dispatch = self._dispatch
        while heap:
            head = heap[0]
            event = head[4]
            if event._cancelled:
                pop(heap)
                continue
            when = head[0]
            if when > deadline:
                break
            pop(heap)
            dispatch(when, event)
        self._now = deadline
        return None
