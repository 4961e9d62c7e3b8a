"""Deterministic discrete-event simulation (DES) engine.

This package provides the execution substrate for the whole reproduction:
a coroutine-based event loop modeled after SimPy, but minimal, deterministic
and tuned for the event densities this project needs (hundreds of thousands
of events per simulated run).

Public surface:

* :class:`~repro.sim.engine.Engine` -- the event loop / simulated clock.
* :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Timeout` --
  primitive awaitables yielded by simulation processes.
* :class:`~repro.sim.engine.Process` -- a running coroutine; also an event
  that triggers when the coroutine finishes.
* :class:`~repro.sim.engine.Call` -- cancellable handle of a one-shot
  callback timer made by :meth:`Engine.call_later` (nothing waits on it).
* :class:`~repro.sim.engine.Interrupt` -- exception thrown into a process by
  :meth:`Process.interrupt`.
* :class:`~repro.sim.engine.Observer` -- the engine's one hook protocol;
  instruments subclass it and install with :meth:`Engine.observe`.
* :class:`~repro.sim.engine.AnyOf` -- wait for the first of several events.
* :class:`~repro.sim.resources.Queue` -- unbounded FIFO channel.
* :class:`~repro.sim.rng.RngRegistry` -- named, independently-seeded RNG
  streams for reproducible experiments.
* :mod:`~repro.sim.units` -- time unit helpers (all simulation time is kept
  in integer microseconds).
"""

from repro.sim.engine import (
    AnyOf,
    Call,
    Engine,
    Event,
    Interrupt,
    Observer,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Queue
from repro.sim.rng import RngRegistry
from repro.sim.units import MICROSECOND, MILLISECOND, SECOND, ms, sec, us

__all__ = [
    "AnyOf",
    "Call",
    "Engine",
    "Event",
    "Interrupt",
    "MICROSECOND",
    "MILLISECOND",
    "Observer",
    "Process",
    "Queue",
    "RngRegistry",
    "SECOND",
    "SimulationError",
    "Timeout",
    "ms",
    "sec",
    "us",
]
