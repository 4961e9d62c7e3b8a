"""Instrumentation for the traced repeat: a sampler and boundary timers.

Untraced repeats install none of this, and check that.  cProfile is not
used: it adds a cost to every Python call and none to native code, which
slows the kv run 2.6x and shifts the layer shares (``kernel`` 46% under
cProfile, 30% sampled).

* :class:`Sampler` takes a ``SIGPROF`` sample every millisecond of process
  CPU time and charges it to the innermost frame under
  ``src/repro/<layer>/``.  Stdlib and builtin frames walk outward to
  their repro caller, so ``compile`` under ``ast.literal_eval`` lands in
  ``workloads``; a bench frame met first (the timers below) is
  ``harness``.
* :class:`Boundaries` wraps each declared boundary function with a call
  counter and an inclusive timer.  A function that returns a generator
  counts one call and is timed on each resume step.
"""

from __future__ import annotations

import functools
import importlib
import signal
import sys
import time
from pathlib import Path
from types import FrameType, GeneratorType
from typing import Any, Callable, Iterable

from bench.spec import BOUNDARIES, LAYERS, ROOT, SRC, Boundary

__all__ = ["Boundaries", "Sampler", "StepTimer", "is_wrapped", "resolve"]

#: Marks a wrapper and keeps the function it replaced.
ORIGINAL_ATTR = "__bench_original__"


class StepTimer:
    """Calls and inclusive seconds of one boundary."""

    __slots__ = ("calls", "seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0


def _timed_steps(gen: GeneratorType, timer: StepTimer):
    """Drive *gen*, timing each resume step; values sent or thrown in pass
    through and its return value is preserved."""
    clock = time.perf_counter
    value: Any = None
    thrown: BaseException | None = None
    while True:
        start = clock()
        try:
            item = gen.send(value) if thrown is None else gen.throw(thrown)
        except StopIteration as stop:
            timer.seconds += clock() - start
            return stop.value
        except BaseException:
            timer.seconds += clock() - start
            raise
        timer.seconds += clock() - start
        thrown = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:
            value, thrown = None, exc


def wrap(fn: Callable, timer: StepTimer) -> Callable:
    """*fn* with a call counter and inclusive timer attached."""
    clock = time.perf_counter

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        timer.calls += 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            timer.seconds += clock() - start
        if type(result) is GeneratorType:
            steps = _timed_steps(result, timer)
            # Engine processes take their default name from the generator.
            steps.__name__ = result.__name__
            steps.__qualname__ = result.__qualname__
            return steps
        return result

    setattr(timed, ORIGINAL_ATTR, fn)
    return timed


def resolve(boundary: Boundary) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` of a boundary: the class or module
    that defines it, and the function or property stored there."""
    owner: Any = importlib.import_module(boundary.module)
    *path, attr = boundary.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def is_wrapped(raw: Any) -> bool:
    """Whether a resolved boundary value is one of our wrappers."""
    fn = raw.fget if isinstance(raw, property) else raw
    return hasattr(fn, ORIGINAL_ATTR)


class Boundaries:
    """Installs the boundary timers; :meth:`uninstall` puts the originals back."""

    def __init__(self, boundaries: Iterable[Boundary] = BOUNDARIES) -> None:
        self.boundaries = tuple(boundaries)
        self.timers = {b.stem: StepTimer() for b in self.boundaries}
        self._undo: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for boundary in self.boundaries:
            owner, attr, raw = resolve(boundary)
            timer = self.timers[boundary.stem]
            if isinstance(raw, property):
                patched: Any = property(wrap(raw.fget, timer), raw.fset, raw.fdel, raw.__doc__)
            else:
                patched = wrap(raw, timer)
            self._set(owner, attr, patched)
            if not isinstance(owner, type):
                # ``from module import name`` made copies: patch them too.
                for module in list(sys.modules.values()):
                    if (
                        module is not owner
                        and getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is raw
                    ):
                        self._set(module, attr, patched)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        previous = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            setattr(owner, attr, previous)

    def snapshot(self) -> dict[str, tuple[int, float]]:
        return {stem: (t.calls, t.seconds) for stem, t in self.timers.items()}


#: Frames whose file maps to no layer: walk outward past them.
_WALK = ""


def layer_of(filename: str) -> str:
    """The layer a code file belongs to, ``harness`` for bench files, or
    :data:`_WALK` for files whose samples belong to their caller."""
    path = Path(filename).resolve()
    if path.is_relative_to(SRC / "repro"):
        parts = path.relative_to(SRC / "repro").parts
        return parts[0] if len(parts) > 1 and parts[0] in LAYERS else _WALK
    return "harness" if path.is_relative_to(ROOT / "bench") else _WALK


#: Sampling period in process CPU seconds.
SAMPLE_INTERVAL_S = 0.001


class Sampler:
    """Counts ``SIGPROF`` samples per layer while running."""

    def __init__(self) -> None:
        self.counts = {layer: 0 for layer in LAYERS}
        self._layers: dict[str, str] = {}
        self._previous: Any = None

    def attribute(self, frame: FrameType | None) -> str:
        layers = self._layers
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = layers.get(filename)
            if layer is None:
                layer = layers[filename] = layer_of(filename)
            if layer:
                return layer
            frame = frame.f_back
        return "harness"

    def _on_sample(self, signum: int, frame: FrameType | None) -> None:
        self.counts[self.attribute(frame)] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
