"""Unit tests for Queue and Gate primitives."""

import pytest

from repro.sim import Engine, SimulationError
from repro.sim.resources import Gate, Queue


def test_queue_put_then_get():
    eng = Engine()
    q = Queue(eng)
    got = []

    def consumer():
        item = yield q.get()
        got.append(item)

    q.put("first")
    eng.process(consumer())
    eng.run()
    assert got == ["first"]


def test_queue_get_blocks_until_put():
    eng = Engine()
    q = Queue(eng)
    got = []

    def consumer():
        item = yield q.get()
        got.append((eng.now, item))

    def producer():
        yield eng.timeout(40)
        q.put("late")

    eng.process(consumer())
    eng.process(producer())
    eng.run()
    assert got == [(40, "late")]


def test_queue_fifo_order_across_waiters():
    eng = Engine()
    q = Queue(eng)
    got = []

    def consumer(tag):
        item = yield q.get()
        got.append((tag, item))

    eng.process(consumer("c1"))
    eng.process(consumer("c2"))

    def producer():
        yield eng.timeout(1)
        q.put("x")
        q.put("y")

    eng.process(producer())
    eng.run()
    assert got == [("c1", "x"), ("c2", "y")]


def test_queue_get_nowait_and_len():
    eng = Engine()
    q = Queue(eng)
    q.put(1)
    q.put(2)
    assert len(q) == 2
    assert q.get_nowait() == 1
    assert q.items == (2,)
    assert q.get_nowait() == 2
    with pytest.raises(SimulationError):
        q.get_nowait()


def test_queue_clear_drains_items():
    eng = Engine()
    q = Queue(eng)
    q.put("a")
    q.put("b")
    assert q.clear() == ["a", "b"]
    assert len(q) == 0


def test_gate_open_passes_immediately():
    eng = Engine()
    gate = Gate(eng)
    times = []

    def proc():
        yield gate.wait()
        times.append(eng.now)

    eng.process(proc())
    eng.run()
    assert times == [0]


def test_gate_closed_blocks_until_open():
    eng = Engine()
    gate = Gate(eng, open_=False)
    times = []

    def proc(tag):
        yield gate.wait()
        times.append((tag, eng.now))

    eng.process(proc("p1"))
    eng.process(proc("p2"))

    def opener():
        yield eng.timeout(75)
        assert gate.waiting == 2
        gate.open()

    eng.process(opener())
    eng.run()
    assert times == [("p1", 75), ("p2", 75)]
    assert gate.is_open


def test_gate_reclose_holds_new_waiters():
    eng = Engine()
    gate = Gate(eng)
    times = []

    def cycle():
        gate.close()
        yield eng.timeout(10)
        gate.open()
        gate.close()
        yield eng.timeout(10)
        gate.open()

    def waiter(start):
        yield eng.timeout(start)
        yield gate.wait()
        times.append((start, eng.now))

    eng.process(cycle())
    eng.process(waiter(5))
    eng.process(waiter(15))
    eng.run()
    assert times == [(5, 10), (15, 20)]
