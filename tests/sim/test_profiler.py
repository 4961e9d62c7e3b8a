"""Unit tests for the deterministic hot-path profiler (perf Layer 3).

The profiler is a pure counter instrument: no wall clock, no entropy —
two same-seed runs must produce byte-identical counter sets, and the
engine must pay nothing when no profiler is installed.
"""

import pytest

from repro.analysis.races import install_detector
from repro.sim.access import record_access
from repro.sim.engine import Engine, Observer, SimulationError
from repro.sim.profiler import (
    SimProfiler,
    counter_digest,
    install_profiler,
)
from repro.sim.trace import trace


def test_hit_accumulates_by_site():
    prof = SimProfiler()
    prof.hit("mm.pages_written")
    prof.hit("mm.pages_written", 4)
    prof.hit("digest.bytes_hashed", 4096)
    assert prof.counters == {
        "mm.pages_written": 5,
        "digest.bytes_hashed": 4096,
    }


def test_harvest_folds_object_counters():
    prof = SimProfiler()
    prof.hit("pool.slot_ops", 2)
    prof.harvest({"pool.slot_ops": 3, "pagestore.pages_stored": 7})
    assert prof.counters["pool.slot_ops"] == 5
    assert prof.counters["pagestore.pages_stored"] == 7


def test_snapshot_is_sorted_by_site():
    prof = SimProfiler()
    prof.hit("zz.last")
    prof.hit("aa.first")
    prof.hit("mm.middle")
    assert list(prof.snapshot()) == ["aa.first", "mm.middle", "zz.last"]


def test_counter_digest_is_order_independent_and_value_sensitive():
    a = {"engine.events": 10, "mm.pages_written": 3}
    b = {"mm.pages_written": 3, "engine.events": 10}
    assert counter_digest(a) == counter_digest(b)
    assert counter_digest(a) != counter_digest({**a, "engine.events": 11})
    assert counter_digest(a) != counter_digest({"engine.events": 10})
    assert len(counter_digest(a)) == 8
    int(counter_digest(a), 16)  # 8 hex chars


def test_install_and_uninstall():
    engine = Engine()
    assert engine._profiler is None
    prof = install_profiler(engine)
    assert engine._profiler is prof
    engine.observe(None)
    assert engine._profiler is None
    # The property reads the one observer slot, whatever observer fills it.
    det = install_detector(engine)
    assert engine._profiler is det
    engine.observe(None)
    assert engine._profiler is None


def _ticker(engine, n):
    for _ in range(n):
        yield engine.timeout(5)


def test_engine_hooks_count_dispatch_and_resume():
    engine = Engine()
    prof = install_profiler(engine)
    engine.process(_ticker(engine, 10), name="tick")
    engine.run()
    counters = prof.snapshot()
    # Each timeout is one dispatched event; the initial kick plus each
    # timeout completion resumes the process.
    assert counters["engine.events"] >= 10
    assert counters["engine.resume.tick"] == 11
    assert counters["engine.heap_push"] >= 10
    # Per-class attribution sums to the total.
    per_class = sum(
        count for site, count in counters.items()
        if site.startswith("engine.events.")
    )
    assert per_class == counters["engine.events"]


def test_same_seedless_sim_replays_identical_digest():
    digests = []
    for _ in range(2):
        engine = Engine()
        prof = install_profiler(engine)
        engine.process(_ticker(engine, 25), name="a")
        engine.process(_ticker(engine, 13), name="b")
        engine.run()
        digests.append(prof.digest())
    assert digests[0] == digests[1]


def test_uninstalled_engine_counts_nothing():
    engine = Engine()
    prof = install_profiler(engine)
    engine.observe(None)
    engine.process(_ticker(engine, 5), name="tick")
    engine.run()
    assert prof.counters == {}
    assert engine.now == 25  # the five timeouts still ran


# -- the engine's one observer slot ------------------------------------------


class _Recorder(Observer):
    """Counts every hook call by hook name."""

    def __init__(self):
        self.calls = {}

    def _note(self, hook):
        self.calls[hook] = self.calls.get(hook, 0) + 1

    def on_scheduled(self, event):
        self._note("on_scheduled")

    def on_event_begin(self, event):
        self._note("on_event_begin")

    def on_event_end(self, event):
        self._note("on_event_end")

    def on_resume(self, process, event):
        self._note("on_resume")

    def on_resume_end(self, process):
        self._note("on_resume_end")

    def on_consume(self, process, event):
        self._note("on_consume")

    def on_condition_join(self, condition, event):
        self._note("on_condition_join")

    def on_access(self, obj, field, kind, key, site):
        self._note("on_access")

    def on_trace(self, category):
        self._note("on_trace")


def _every_hook(engine):
    done = engine.event().succeed()
    yield engine.timeout(1)
    yield done  # already processed: consumed inline
    yield engine.any_of([engine.timeout(2), engine.timeout(3)])
    record_access(engine, "state", "field", "w")
    trace(engine, "test", "step")
    engine.call_later(1, lambda: None)


def test_observer_receives_every_hook():
    engine = Engine()
    rec = engine.observe(_Recorder())
    engine.process(_every_hook(engine), name="p")
    engine.run()
    calls = rec.calls
    assert set(calls) == {
        "on_scheduled", "on_event_begin", "on_event_end", "on_resume",
        "on_resume_end", "on_consume", "on_condition_join", "on_access",
        "on_trace",
    }
    # Eight events: the start, `done`, three timeouts, the AnyOf, the
    # process end and the call.
    assert calls["on_event_begin"] == calls["on_event_end"] == 8
    assert calls["on_resume"] == calls["on_resume_end"] == 3
    assert calls["on_consume"] == 1
    assert calls["on_condition_join"] == 1
    assert calls["on_access"] == calls["on_trace"] == 1


def test_a_second_observer_raises():
    engine = Engine()
    prof = install_profiler(engine)
    with pytest.raises(SimulationError, match="already observing"):
        install_detector(engine)
    with pytest.raises(SimulationError, match="already observing"):
        engine.observe(SimProfiler())
    assert engine._observer is prof


def test_observe_none_restores_the_hook_free_timeout_push():
    engine = Engine()
    rec = engine.observe(_Recorder())
    engine.timeout(5)
    assert rec.calls == {"on_scheduled": 1}
    engine.observe(None)

    def _not_the_flat_push(*_args):
        raise AssertionError("Timeout went through _schedule")

    engine._schedule = _not_the_flat_push
    timeout = engine.timeout(7)
    assert engine._heap[-1][2] == 0 and engine._heap[-1][4] is timeout
    engine.run()
    assert rec.calls == {"on_scheduled": 1}
