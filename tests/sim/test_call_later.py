"""`Engine.call_later`: a callback stored in the heap entry.

A :class:`~repro.sim.engine.Call` must be indistinguishable from a
``timeout(delay)`` carrying one callback in everything the simulation can
observe: heap order, tie-break contexts, profiler counts and the race
detector's happens-before edges.
"""

import pytest

from repro.analysis.fuzz import ReversedTieBreak
from repro.analysis.races import install_detector
from repro.sim import Call, Engine, SimulationError
from repro.sim.access import record_access
from repro.sim.profiler import install_profiler


def test_call_and_timeout_due_together_fire_in_schedule_order():
    eng = Engine()
    order = []
    eng.call_later(50, order.append, "call-1")
    eng.timeout(50).callbacks.append(lambda _ev: order.append("timeout"))
    eng.call_later(50, order.append, "call-2")
    eng.call_later(10, order.append, "early")
    eng.run()
    assert order == ["early", "call-1", "timeout", "call-2"]
    assert eng.now == 50


def test_call_passes_its_arguments():
    eng = Engine()
    seen = []
    call = eng.call_later(5, lambda *args: seen.append(args), 1, "two")
    assert isinstance(call, Call)
    eng.run()
    assert seen == [(1, "two")]


def test_self_rearming_chains_fire_every_timer():
    # The bridge-hop / retransmit shape: each call arms the next one from
    # inside its own dispatch.
    eng = Engine()
    prof = install_profiler(eng)
    left = [100] * 8

    def fire(chain):
        left[chain] -= 1
        if left[chain]:
            eng.call_later(7, fire, chain)

    for chain in range(8):
        eng.call_later(7, fire, chain)
    eng.run()
    assert left == [0] * 8
    assert prof.counters["engine.events.Call"] == 800
    assert eng.now == 700


def _cancelled_setup():
    eng = Engine()
    fired = []
    eng.call_later(1_000, fired.append, "cancelled").cancel()
    eng.call_later(10, fired.append, "live")
    return eng, fired


def test_cancelled_call_is_skipped_by_step():
    eng, fired = _cancelled_setup()
    eng.step()
    assert fired == ["live"] and eng.now == 10
    with pytest.raises(SimulationError):
        eng.step()  # only the cancelled entry is left
    assert eng.now == 10


def test_cancelled_call_is_skipped_by_run():
    eng, fired = _cancelled_setup()
    eng.run()
    assert fired == ["live"]
    assert eng.now == 10  # not dragged out to the cancelled call


def test_cancelled_call_is_skipped_by_run_until_time():
    eng, fired = _cancelled_setup()
    eng.call_later(0, fired.append, "head").cancel()  # cancelled head entry
    eng.run(until=500)
    assert fired == ["live"]
    assert eng.now == 500
    assert eng.peek() is None


def test_cancelled_call_is_skipped_by_run_until_event():
    eng, fired = _cancelled_setup()
    done = eng.timeout(20, value="done")
    assert eng.run(until=done) == "done"
    assert fired == ["live"]
    assert eng.now == 20


def _tiebreak_order(use_call: bool) -> list[str]:
    """Three processes each arm one timer due at t=100; every firing arms
    two follow-ups due together at t=110 from its own context."""
    eng = Engine()
    eng.set_tiebreak(ReversedTieBreak())
    order = []

    def arm(delay, fn, *args):
        if use_call:
            eng.call_later(delay, fn, *args)
        else:
            eng.timeout(delay).callbacks.append(lambda _ev: fn(*args))

    def fire(name):
        order.append(name)
        arm(10, order.append, name + ".1")
        arm(10, order.append, name + ".2")

    def proc(name):
        arm(100, fire, name)
        yield eng.timeout(0)

    for name in ("a", "b", "c"):
        eng.process(proc(name))
    eng.run()
    return order


def test_reversed_tiebreak_permutes_a_call_as_one_context():
    via_timeout = _tiebreak_order(use_call=False)
    assert _tiebreak_order(use_call=True) == via_timeout
    # Later contexts go first, at t=100 and again at t=110, where each
    # firing is its own context; one context's follow-ups keep FIFO.
    assert via_timeout == [
        "c", "b", "a", "a.1", "a.2", "b.1", "b.2", "c.1", "c.2",
    ]


def test_negative_delay_raises_like_timeout():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.timeout(-1)
    with pytest.raises(SimulationError):
        eng.call_later(-1, lambda: None)
    assert eng._heap == []


def test_profiler_counts_a_call_once():
    eng = Engine()
    prof = install_profiler(eng)
    eng.call_later(5, lambda: None)
    eng.run()
    assert prof.counters["engine.events"] == 1
    assert prof.counters["engine.events.Call"] == 1
    assert prof.counters["engine.heap_push"] == 1


def test_call_from_a_process_happens_after_it():
    eng = Engine()
    det = install_detector(eng)

    def write(site):
        record_access(eng, "state", "field", "w", site=site)

    def proc():
        yield eng.timeout(100)
        write("process")
        eng.call_later(0, write, "call")

    eng.process(proc(), name="writer")
    eng.run()
    assert det.accesses_recorded == 2
    assert det.findings == []


def test_calls_from_unrelated_processes_are_unordered():
    """The control case: same-instant calls armed by two processes that
    never synchronise do race."""
    eng = Engine()
    det = install_detector(eng)

    def write(site):
        record_access(eng, "state", "field", "w", site=site)

    def proc(name):
        eng.call_later(100, write, name)
        yield eng.timeout(0)

    eng.process(proc("a"), name="writer-a")
    eng.process(proc("b"), name="writer-b")
    eng.run()
    assert [f.check for f in det.findings] == ["same-time-conflict"]
    assert "event:Call" in det.findings[0].message
