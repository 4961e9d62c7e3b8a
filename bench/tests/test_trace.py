"""Sampler attribution and boundary wrappers."""

from __future__ import annotations

import ast
import inspect
import sys
import time
import types

import pytest

from bench.spec import ROOT, SRC, Boundary
from bench.trace import Boundaries, Sampler, is_wrapped, resolve


def _function(filename: str, source: str, name: str, **globals_):
    """A function whose code claims to live in *filename*."""
    namespace = dict(globals_)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _frame_chain(*files: str):
    """The frame of the innermost of nested calls, one per file (outermost
    first); the innermost returns its own frame."""
    call = _function(files[-1], "def f():\n    return sys._getframe()\n", "f", sys=sys)
    for filename in reversed(files[:-1]):
        call = _function(filename, "def f():\n    return inner()\n", "f", inner=call)
    return call()


STDLIB = ast.__file__
REPRO_WORKLOADS = str(SRC / "repro" / "workloads" / "protocol.py")
REPRO_KERNEL = str(SRC / "repro" / "kernel" / "mm.py")
REPRO_EXPERIMENTS = str(SRC / "repro" / "experiments" / "common.py")
BENCH_FILE = str(ROOT / "bench" / "trace.py")


def test_stdlib_frame_walks_out_to_its_repro_caller():
    frame = _frame_chain(REPRO_WORKLOADS, STDLIB, STDLIB)
    assert Sampler().attribute(frame) == "workloads"


def test_innermost_layer_frame_wins():
    frame = _frame_chain(REPRO_WORKLOADS, REPRO_KERNEL, STDLIB)
    assert Sampler().attribute(frame) == "kernel"


def test_bench_frame_met_first_is_harness():
    frame = _frame_chain(REPRO_KERNEL, BENCH_FILE, STDLIB)
    assert Sampler().attribute(frame) == "harness"


def test_repro_package_that_is_no_layer_walks_out():
    frame = _frame_chain(REPRO_KERNEL, REPRO_EXPERIMENTS)
    assert Sampler().attribute(frame) == "kernel"
    assert Sampler().attribute(_frame_chain(STDLIB)) == "harness"


def test_sampler_charges_cpu_samples_to_the_busy_layer():
    spin = _function(
        REPRO_KERNEL,
        "def spin(seconds):\n"
        "    end = clock() + seconds\n"
        "    n = 0\n"
        "    while clock() < end:\n"
        "        n += 1\n"
        "    return n\n",
        "spin",
        clock=time.process_time,
    )
    sampler = Sampler()
    sampler.start()
    try:
        spin(0.3)
    finally:
        sampler.stop()
    total = sum(sampler.counts.values())
    assert total > 10
    assert sampler.counts["kernel"] > total / 2


# -- boundary wrappers ----------------------------------------------------


class _Thing:
    def double(self, x):
        return 2 * x

    @property
    def size(self):
        """Size doc."""
        return 7

    def steps(self, first):
        got = yield first
        try:
            got = yield got + 1
        except KeyError:
            got = yield "caught"
        return f"done:{got}"


def _plain(x):
    return x + 1


@pytest.fixture
def fake_modules():
    """``repro._bench_a`` defines the targets; ``repro._bench_b`` did
    ``from repro._bench_a import _plain``."""
    a = types.ModuleType("repro._bench_a")
    a._plain = _plain
    a.Thing = _Thing
    b = types.ModuleType("repro._bench_b")
    b._plain = _plain
    sys.modules.update({a.__name__: a, b.__name__: b})
    yield a, b
    for module in (a, b):
        del sys.modules[module.__name__]


BOUNDS = (
    Boundary("t.plain", "repro._bench_a", "_plain"),
    Boundary("t.double", "repro._bench_a", "Thing.double"),
    Boundary("t.size", "repro._bench_a", "Thing.size"),
    Boundary("t.steps", "repro._bench_a", "Thing.steps"),
)


def test_wrappers_count_time_and_preserve_results(fake_modules):
    a, b = fake_modules
    double = a.Thing.__dict__["double"]
    boundaries = Boundaries(BOUNDS)
    boundaries.install()
    try:
        assert all(is_wrapped(resolve(bound)[2]) for bound in BOUNDS)
        assert a._plain(1) == 2 and b._plain(2) == 3
        thing = a.Thing()
        assert thing.double(4) == 8
        assert thing.size == 7 and type(thing).size.__doc__ == "Size doc."
    finally:
        boundaries.uninstall()
    calls = {stem: calls for stem, (calls, _s) in boundaries.snapshot().items()}
    assert calls == {"t.plain": 2, "t.double": 1, "t.size": 1, "t.steps": 0}
    assert a._plain is _plain and b._plain is _plain
    assert a.Thing.__dict__["double"] is double
    assert not any(is_wrapped(resolve(bound)[2]) for bound in BOUNDS)


def test_generator_wrapper_passes_send_and_throw_through(fake_modules):
    a, _b = fake_modules
    boundaries = Boundaries(BOUNDS)
    boundaries.install()
    try:
        gen = a.Thing().steps(10)
        assert gen.__name__ == "steps"
        assert next(gen) == 10
        assert gen.send(5) == 6
        assert gen.throw(KeyError("k")) == "caught"
        with pytest.raises(StopIteration) as stop:
            gen.send("x")
        assert stop.value.value == "done:x"

        def delegate():
            return (yield from a.Thing().steps(1))

        outer = delegate()
        assert next(outer) == 1 and outer.send(1) == 2
        with pytest.raises(StopIteration) as stop:
            outer.send(3)
        assert stop.value.value == "done:3"
    finally:
        boundaries.uninstall()
    calls, seconds = boundaries.snapshot()["t.steps"]
    assert calls == 2 and seconds > 0


def test_generator_wrapper_propagates_uncaught_throw_and_close(fake_modules):
    a, _b = fake_modules
    boundaries = Boundaries(BOUNDS)
    boundaries.install()
    try:
        gen = a.Thing().steps(0)
        next(gen)
        with pytest.raises(ValueError):
            gen.throw(ValueError("boom"))
        closing = a.Thing().steps(0)
        next(closing)
        closing.close()
        assert inspect.getgeneratorstate(closing) == "GEN_CLOSED"
    finally:
        boundaries.uninstall()
