"""Deterministic hot-path profiler: the paper gate's work counters.

The profiler is a pure *counter* instrument: it counts simulation work —
events dispatched (by event class), heap pushes, process resumptions (by
process name), trace emissions (by category), pages written/digested/
stored, bytes hashed — and never reads the wall clock, so two same-seed
runs produce byte-identical counter sets.  The paper gate's ``engine``
artifact (:mod:`repro.experiments.engine`) relies on that: it compares
the counters and their digest exactly, as a replay check.

The profiler is an engine :class:`~repro.sim.engine.Observer`, installed
in the engine's one observer slot like the race detector (see
:mod:`repro.sim.engine`); every hook site costs one attribute check when
no observer is installed.  Hot objects without an engine reference
(:class:`~repro.kernel.mm.AddressSpace`, the page stores,
:class:`~repro.fleet.pool.HostPool`) instead keep plain always-on integer
counters that :func:`harvest` collects at snapshot time —
an int increment is cheaper than any conditional hook would be.

Counter vocabulary (dotted sites; see ``docs/perf.md``)::

    engine.events                engine.events.<EventClass>
    engine.heap_push             engine.resume.<process-name>
    trace.<category>
    mm.pages_written             mm.pages_snapshotted    mm.faults
    digest.pages_digested        digest.bytes_hashed     digest.cache_hits
    pagestore.pages_stored       pool.slot_ops           pool.load_queries
"""

from __future__ import annotations

import json
import zlib
from typing import TYPE_CHECKING, Mapping

from repro.sim.engine import Observer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Call, Engine, Event, Process

__all__ = [
    "SimProfiler",
    "counter_digest",
    "install_profiler",
]


class SimProfiler(Observer):
    """Accumulates deterministic work counters for one profiled run."""

    #: The measuring instrument is not itself measured: hot classification
    #: and PERF linting skip this class (see repro.analysis.perf).
    __perf_exempt__ = True

    def __init__(self) -> None:
        #: site -> count.  Plain dict; keys are inserted on first hit, but
        #: every reader sorts, so insertion order never leaks into output.
        self.counters: dict[str, int] = {}

    # -- generic ---------------------------------------------------------
    def hit(self, site: str, n: int = 1) -> None:
        """Add *n* to the counter for *site*."""
        counters = self.counters
        counters[site] = counters.get(site, 0) + n

    # -- observer hooks ----------------------------------------------------
    def on_event_begin(self, event: "Event | Call") -> None:
        """One heap event dispatched; attribute it to the event class."""
        counters = self.counters
        counters["engine.events"] = counters.get("engine.events", 0) + 1
        site = "engine.events." + type(event).__name__
        counters[site] = counters.get(site, 0) + 1

    def on_scheduled(self, event: "Event | Call") -> None:
        counters = self.counters
        counters["engine.heap_push"] = counters.get("engine.heap_push", 0) + 1

    def on_resume(self, process: "Process", event: "Event") -> None:
        """One coroutine resumption; attribute it to the process name."""
        counters = self.counters
        counters["engine.resume"] = counters.get("engine.resume", 0) + 1
        site = "engine.resume." + process.name
        counters[site] = counters.get(site, 0) + 1

    def on_trace(self, category: str) -> None:
        """Protocol-event volume by category (per-epoch attribution)."""
        self.hit("trace." + category)

    # -- harvesting ------------------------------------------------------
    def harvest(self, sites: Mapping[str, int]) -> None:
        """Fold a ``site -> count`` mapping of always-on object counters in."""
        for site, count in sites.items():
            self.hit(site, count)

    def snapshot(self) -> dict[str, int]:
        """Counters in sorted-key order (deterministic for JSON/digest)."""
        return {site: self.counters[site] for site in sorted(self.counters)}

    def digest(self) -> str:
        return counter_digest(self.counters)


def counter_digest(counters: Mapping[str, int]) -> str:
    """CRC32 digest over the sorted counter set.

    Same role as the fleet campaign's trace digest: identical across two
    same-seed runs, or the profiler (or the simulation under it) is
    nondeterministic.
    """
    blob = json.dumps(sorted(counters.items()), separators=(",", ":")).encode()
    return f"{zlib.crc32(blob) & 0xFFFFFFFF:08x}"


def install_profiler(engine: "Engine") -> SimProfiler:
    """Attach a fresh profiler to *engine*; returns it.  Remove it with
    ``engine.observe(None)``."""
    return engine.observe(SimProfiler())
