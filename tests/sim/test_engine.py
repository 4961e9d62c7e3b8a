"""Unit tests for the DES engine core."""

import pytest

from repro.sim import (
    AnyOf,
    Engine,
    Interrupt,
    SimulationError,
    ms,
)


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0
    assert eng.peek() is None


def test_timeout_advances_clock():
    eng = Engine()
    trace = []

    def proc():
        yield eng.timeout(100)
        trace.append(eng.now)
        yield eng.timeout(250)
        trace.append(eng.now)

    eng.process(proc())
    eng.run()
    assert trace == [100, 350]


def test_timeout_value_passthrough():
    eng = Engine()
    got = []

    def proc():
        value = yield eng.timeout(5, value="hello")
        got.append(value)

    eng.process(proc())
    eng.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.timeout(-1)


def test_process_return_value():
    eng = Engine()

    def child():
        yield eng.timeout(10)
        return 42

    def parent(results):
        value = yield eng.process(child())
        results.append(value)

    results = []
    eng.process(parent(results))
    eng.run()
    assert results == [42]


def test_same_time_events_fire_in_schedule_order():
    eng = Engine()
    order = []

    def make(tag):
        def proc():
            yield eng.timeout(100)
            order.append(tag)

        return proc

    for tag in ["a", "b", "c", "d"]:
        eng.process(make(tag)())
    eng.run()
    assert order == ["a", "b", "c", "d"]


def test_run_until_time_stops_clock_exactly():
    eng = Engine()

    def proc():
        while True:
            yield eng.timeout(30)

    eng.process(proc())
    eng.run(until=100)
    assert eng.now == 100


def test_run_until_event_returns_value():
    eng = Engine()

    def proc():
        yield eng.timeout(7)
        return "done"

    p = eng.process(proc())
    assert eng.run(until=p) == "done"
    assert eng.now == 7


def test_run_until_past_raises():
    eng = Engine()

    def proc():
        yield eng.timeout(50)

    eng.process(proc())
    eng.run(until=50)
    with pytest.raises(SimulationError):
        eng.run(until=10)


def test_event_succeed_wakes_waiter():
    eng = Engine()
    ev = eng.event()
    woke = []

    def waiter():
        value = yield ev
        woke.append((eng.now, value))

    def trigger():
        yield eng.timeout(200)
        ev.succeed("payload")

    eng.process(waiter())
    eng.process(trigger())
    eng.run()
    assert woke == [(200, "payload")]


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    eng = Engine()
    ev = eng.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield eng.timeout(1)
        ev.fail(ValueError("boom"))

    eng.process(waiter())
    eng.process(trigger())
    eng.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_surfaces_from_run():
    eng = Engine()
    ev = eng.event()
    ev.fail(RuntimeError("lost failure"))
    with pytest.raises(RuntimeError, match="lost failure"):
        eng.run()


def test_defused_failure_does_not_crash():
    eng = Engine()
    ev = eng.event()
    ev.fail(RuntimeError("handled"))
    ev.defuse()
    eng.run()  # should not raise


def test_crashing_process_surfaces_exception():
    eng = Engine()

    def proc():
        yield eng.timeout(1)
        raise KeyError("oops")

    eng.process(proc())
    with pytest.raises(KeyError):
        eng.run()


def test_parent_can_catch_child_failure():
    eng = Engine()
    caught = []

    def child():
        yield eng.timeout(1)
        raise KeyError("child-crash")

    def parent():
        try:
            yield eng.process(child())
        except KeyError:
            caught.append(eng.now)

    eng.process(parent())
    eng.run()
    assert caught == [1]


def test_yield_non_event_is_an_error():
    eng = Engine()

    def proc():
        yield 12345

    eng.process(proc())
    with pytest.raises(SimulationError, match="non-event"):
        eng.run()


def test_interrupt_delivers_cause():
    eng = Engine()
    seen = []

    def victim():
        try:
            yield eng.timeout(ms(100))
        except Interrupt as intr:
            seen.append((eng.now, intr.cause))

    def attacker(proc):
        yield eng.timeout(ms(10))
        proc.interrupt("fail-stop")

    v = eng.process(victim())
    eng.process(attacker(v))
    eng.run()
    assert seen == [(ms(10), "fail-stop")]


def test_interrupt_detaches_from_original_target():
    """After an interrupt, the original timeout must not resume the process."""
    eng = Engine()
    resumptions = []

    def victim():
        try:
            yield eng.timeout(100)
        except Interrupt:
            pass
        resumptions.append(eng.now)
        yield eng.timeout(500)
        resumptions.append(eng.now)

    def attacker(proc):
        yield eng.timeout(10)
        proc.interrupt()

    v = eng.process(victim())
    eng.process(attacker(v))
    eng.run()
    assert resumptions == [10, 510]


def test_interrupt_dead_process_rejected():
    eng = Engine()

    def quick():
        yield eng.timeout(1)

    p = eng.process(quick())
    eng.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupt_on_finished_but_unprocessed_is_swallowed():
    """Interrupt racing with natural completion in the same instant."""
    eng = Engine()

    def victim():
        yield eng.timeout(10)

    def attacker(proc):
        yield eng.timeout(10)
        if proc.is_alive:
            proc.interrupt()

    v = eng.process(victim())
    eng.process(attacker(v))
    eng.run()  # must not raise


def test_any_of_triggers_on_first():
    eng = Engine()
    result = []

    def proc():
        t1 = eng.timeout(100, value="slow")
        t2 = eng.timeout(10, value="fast")
        done = yield AnyOf(eng, [t1, t2])
        result.append((eng.now, list(done.values())))

    eng.process(proc())
    eng.run()
    assert result == [(10, ["fast"])]


def test_yield_already_processed_event_resumes_at_same_time():
    eng = Engine()
    times = []

    def proc():
        ev = eng.event()
        ev.succeed("x")
        yield eng.timeout(50)
        value = yield ev  # already processed by now
        times.append((eng.now, value))

    eng.process(proc())
    eng.run()
    assert times == [(50, "x")]


def test_deterministic_replay():
    """Two identical runs produce identical event traces."""

    def run_once():
        eng = Engine()
        trace = []

        def worker(tag, period):
            while eng.now < 1000:
                yield eng.timeout(period)
                trace.append((eng.now, tag))

        eng.process(worker("a", 7))
        eng.process(worker("b", 13))
        eng.process(worker("c", 13))
        eng.run(until=1000)
        return trace

    assert run_once() == run_once()
