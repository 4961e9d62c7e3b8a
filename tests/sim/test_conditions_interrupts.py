"""Engine edge cases: conditions over settled events, conditions releasing
their losing constituents, interrupting condition waiters, and
same-timestamp URGENT/NORMAL ordering."""

import gc
import weakref

import pytest

from repro.sim import AnyOf, Engine, Event, Interrupt
from repro.sim.engine import NORMAL, URGENT


# --------------------------------------------------------------------------- #
# AnyOf with already-settled constituents                                    #
# --------------------------------------------------------------------------- #


def test_anyof_with_already_triggered_event():
    eng = Engine()
    done = Event(eng).succeed("early")
    results = []

    def proc():
        got = yield AnyOf(eng, [done, eng.timeout(100)])
        results.append((eng.now, dict(got)))

    eng.process(proc())
    eng.run()
    assert len(results) == 1
    at, got = results[0]
    assert at == 0  # no waiting: one constituent was already settled
    assert got[done] == "early"


def test_anyof_with_failed_event_raises_in_waiter():
    eng = Engine()
    boom = RuntimeError("boom")
    caught = []

    def proc():
        failed = Event(eng)
        failed.fail(boom)
        try:
            yield AnyOf(eng, [failed, eng.timeout(100)])
        except RuntimeError as exc:
            caught.append((eng.now, exc))

    eng.process(proc())
    eng.run()
    assert caught == [(0, boom)]


# --------------------------------------------------------------------------- #
# A triggered condition releases the constituents that have not fired         #
# --------------------------------------------------------------------------- #


class _WeakAnyOf(AnyOf):
    __slots__ = ("__weakref__",)


def _queued(eng, event):
    return any(entry[4] is event for entry in eng._heap)


def _tracked(refs, condition):
    # No local of the waiter holds the condition: a failure's traceback
    # keeps the waiter's frame, and with it its locals, alive.
    refs.append(weakref.ref(condition))
    return condition


def test_anyof_is_freed_while_losing_timeout_stays_queued():
    eng = Engine()
    ev = Event(eng)
    deadline = eng.timeout(10**6)
    refs = []

    def waiter():
        yield _tracked(refs, _WeakAnyOf(eng, [ev, deadline]))

    eng.process(waiter())
    eng.call_later(10, ev.succeed, "reply")
    eng.run(until=100)
    gc.collect()
    assert refs[0]() is None
    assert _queued(eng, deadline) and not deadline.processed


def test_losing_process_failing_later_does_not_surface():
    eng = Engine()
    log = []

    def loser():
        yield eng.timeout(1_000)  # dies of the interrupt below

    slow = eng.process(loser())

    def waiter():
        got = yield eng.any_of([slow, eng.timeout(10, value="timed out")])
        log.append((eng.now, list(got.values())))

    eng.process(waiter())
    eng.call_later(50, slow.interrupt, "cancel")
    eng.run()  # the loser's Interrupt is defused, not raised here
    assert log == [(10, ["timed out"])]
    assert not slow.ok and isinstance(slow.value, Interrupt)


def test_losing_constituent_fires_in_one_callback_context():
    eng = Engine()
    late = eng.timeout(100)

    def waiter():
        yield eng.any_of([eng.timeout(10), late])

    eng.process(waiter())
    eng.run(until=50)
    before = eng._ctx_serial
    eng.run()
    assert late.processed
    assert eng._ctx_serial - before == 1


def test_anyof_failing_releases_the_other_constituents():
    eng = Engine()
    failing = Event(eng)
    slow = eng.timeout(10**6)
    refs = []
    caught = []

    def waiter():
        try:
            yield _tracked(refs, _WeakAnyOf(eng, [failing, slow]))
        except ValueError:
            caught.append(eng.now)

    eng.process(waiter())
    eng.call_later(50, failing.fail, ValueError("nope"))
    eng.run(until=100)
    gc.collect()
    assert caught == [50]
    assert refs[0]() is None
    assert _queued(eng, slow) and not slow.processed


# --------------------------------------------------------------------------- #
# Interrupting a process blocked on a condition                               #
# --------------------------------------------------------------------------- #


def test_interrupt_while_blocked_on_anyof():
    eng = Engine()
    log = []

    def waiter():
        try:
            yield AnyOf(eng, [eng.timeout(1_000), eng.timeout(2_000)])
            log.append("completed")
        except Interrupt as intr:
            log.append(("interrupted", eng.now, intr.cause))
            # The process must remain usable after the interrupt.
            yield eng.timeout(10)
            log.append(("resumed", eng.now))

    proc = eng.process(waiter())

    def interrupter():
        yield eng.timeout(100)
        proc.interrupt(cause="hurry")

    eng.process(interrupter())
    eng.run()
    assert log == [("interrupted", 100, "hurry"), ("resumed", 110)]


# --------------------------------------------------------------------------- #
# Same-timestamp URGENT vs NORMAL ordering                                    #
# --------------------------------------------------------------------------- #


def test_urgent_orders_before_normal_at_same_timestamp():
    eng = Engine()
    order = []

    normal = Event(eng)
    urgent = Event(eng)
    normal.callbacks.append(lambda e: order.append("normal"))
    urgent.callbacks.append(lambda e: order.append("urgent"))

    # Schedule NORMAL first so sequence numbers would pick it; priority
    # must win the tie regardless of insertion order.
    eng._schedule(normal, NORMAL, 0)
    eng._schedule(urgent, URGENT, 0)
    eng.run()
    assert order == ["urgent", "normal"]


def test_interrupt_beats_same_time_timeout():
    """An interrupt issued at time T is delivered before the victim's own
    timeout firing at the same instant: the Interrupt is scheduled URGENT,
    so it overtakes the already-queued NORMAL timeout despite the
    timeout's earlier sequence number."""
    eng = Engine()
    log = []
    proc_box = []

    def interrupter():
        # Spawned first so this resumes at t=100 *before* the victim's
        # same-instant timeout pops (earlier sequence number).
        yield eng.timeout(100)
        proc_box[0].interrupt(cause="now")

    def victim():
        try:
            yield eng.timeout(100)
            log.append("timeout-side")
        except Interrupt as intr:
            log.append(("interrupt-side", eng.now, intr.cause))

    eng.process(interrupter())
    proc_box.append(eng.process(victim()))
    eng.run()
    assert log == [("interrupt-side", 100, "now")]


def test_interrupt_dead_process_rejected():
    from repro.sim import SimulationError

    eng = Engine()

    def quick():
        yield eng.timeout(1)

    proc = eng.process(quick())
    eng.run()
    with pytest.raises(SimulationError):
        proc.interrupt()
