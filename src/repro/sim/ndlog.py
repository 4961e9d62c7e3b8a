"""The nondeterminism log (NDLog): record every draw, replay from the log.

HyCoR-style replication (PAPERS.md) replaces output-commit-per-epoch with
*logging of nondeterministic inputs* and deterministic replay on the
backup.  That only works if the log captures **every** nondeterministic
input — a single unlogged draw makes the replayed execution silently
diverge from the one whose output already escaped.  This module is the
runtime half of the proof (:mod:`repro.analysis.ndflow` is the static
half): an :class:`NDLog` wraps every :class:`~repro.sim.rng.RngRegistry`
stream and the engine's tie-break policy, stamping each decision with a
per-stream sequence number.  :func:`entries_digest` is the log's one
CRC32 digest: :meth:`NDLog.digest` computes it over the whole log, and
HyCoR's shipper (:mod:`repro.replication.hycor`) over each flush window.

Two modes:

* ``record`` — draws pass through to the underlying seeded generator and
  are appended to the log.
* ``replay`` — draws are served **from the log alone**; the underlying
  generators are never consulted.  Any mismatch — a consumer drawing more
  than was recorded, a different method at the same position, a truncated
  or corrupted log — raises :class:`ReplayDivergence` naming the stream
  and sequence number of the first bad draw.

The record→replay differential oracle (:mod:`repro.analysis.ndreplay`)
runs a workload in record mode, re-runs it replaying from the serialized
log, and requires trace/metrics digests to be replay-identical — which is
exactly the property a HyCoR backup needs from this log.

The wrapper streams carry exactly the draws the simulator makes
(``random``, ``randrange`` and ``expovariate``), so record and replay
consume the log in lockstep by construction.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.world import World

__all__ = [
    "NDLog",
    "RecordingTieBreak",
    "ReplayDivergence",
    "ReplayTieBreak",
    "TIEBREAK_STREAM",
    "attach_ndlog",
    "detach_ndlog",
    "entries_digest",
]

#: The engine's same-timestamp tie-break decisions ride the log as a
#: stream of their own, so a replay needs no knowledge of the policy that
#: produced them.
TIEBREAK_STREAM = "engine.tiebreak"


class ReplayDivergence(RuntimeError):
    """A replayed draw did not match the recorded log.

    Carries the *stream* name and the 0-based *seq*uence number of the
    first diverging draw, so a failed replay points at the exact decision
    that went wrong rather than at a downstream digest mismatch.
    """

    def __init__(self, stream: str, seq: int, reason: str) -> None:
        self.stream = stream
        self.seq = seq
        self.reason = reason
        super().__init__(f"replay divergence at {stream}#{seq}: {reason}")


def entries_digest(entries: Iterable[tuple[str, int, str, Any]]) -> str:
    """CRC32 digest of ``(stream, seq, method, value)`` draws, as 8 hex
    digits: each stream's draws are folded as ``"{seq}|{method}|{value!r}"``
    in the order given, then the per-stream CRCs are combined in sorted
    stream order.  Interleaving *across* streams is scheduling, not
    provenance, so it does not enter the digest.  The one CRC of the log:
    :meth:`NDLog.digest` and HyCoR's flush windows both use it."""
    crcs: dict[str, int] = {}
    for stream, seq, method, value in entries:
        crcs[stream] = zlib.crc32(
            f"{seq}|{method}|{value!r}".encode("utf-8"), crcs.get(stream, 0))
    combined = 0
    for name in sorted(crcs):
        combined = zlib.crc32(f"{name}|{crcs[name]:08x}".encode("utf-8"), combined)
    return format(combined, "08x")


class NDLog:
    """Per-stream, sequence-numbered log of nondeterministic decisions."""

    __nd_exempt__ = True  # the measuring instrument is not itself a source
    __ckpt_ignore__ = True  # host-side analysis state, never checkpointed

    MODES = ("record", "replay")

    def __init__(self, mode: str = "record") -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown NDLog mode {mode!r}; use {self.MODES}")
        self.mode = mode
        #: stream name -> ordered list of ``(method, value)`` draws.
        self._entries: dict[str, list[tuple[str, Any]]] = {}
        #: replay cursors: stream name -> next sequence number to serve.
        self._cursors: dict[str, int] = {}

    # -- digest -------------------------------------------------------- #
    def _logged(self) -> Iterator[tuple[str, int, str, Any]]:
        """The draws recorded (record mode) or served so far (replay mode)
        as ``(stream, seq, method, value)``."""
        replaying = self.mode == "replay"
        for name, draws in self._entries.items():
            served = self._cursors.get(name, 0) if replaying else len(draws)
            for seq in range(served):
                method, value = draws[seq]
                yield name, seq, method, value

    @property
    def n_draws(self) -> int:
        if self.mode == "replay":
            return sum(self._cursors.values())
        return sum(len(draws) for draws in self._entries.values())

    def digest(self) -> str:
        """:func:`entries_digest` of the draws recorded (record mode) or
        served so far (replay mode), so a record log and a fully-consumed
        faithful replay produce the same digest; any skipped, extra or
        altered draw changes it."""
        return entries_digest(self._logged())

    # -- record -------------------------------------------------------- #
    def record(self, stream: str, method: str, value: Any) -> Any:
        if self.mode != "record":
            raise ReplayDivergence(
                stream, self._cursors.get(stream, 0),
                f"unlogged {method}() draw during replay — this consumer "
                f"bypasses the NDLog",
            )
        self._entries.setdefault(stream, []).append((method, value))
        return value

    # -- replay -------------------------------------------------------- #
    def replay(self, stream: str, method: str) -> Any:
        seq = self._cursors.get(stream, 0)
        draws = self._entries.get(stream)
        if draws is None:
            raise ReplayDivergence(
                stream, 0, f"stream was never recorded but replay drew "
                f"{method}() from it")
        if seq >= len(draws):
            raise ReplayDivergence(
                stream, seq,
                f"log exhausted: replay drew {method}() but only "
                f"{len(draws)} draw(s) were recorded")
        recorded_method, value = draws[seq]
        if recorded_method != method:
            raise ReplayDivergence(
                stream, seq,
                f"method mismatch: recorded {recorded_method}(), replay "
                f"drew {method}()")
        self._cursors[stream] = seq + 1
        return value

    # -- introspection -------------------------------------------------- #
    def streams(self) -> list[str]:
        return sorted(self._entries)

    def has_stream(self, name: str) -> bool:
        return name in self._entries

    def draw_counts(self) -> dict[str, int]:
        return {name: len(draws) for name, draws in self._entries.items()}

    def unconsumed(self) -> dict[str, int]:
        """Replay completeness: draws recorded but never replayed.  A
        faithful replay consumes the log exactly; leftovers mean the
        replayed run made *fewer* decisions than the recorded one."""
        return {
            name: len(draws) - self._cursors.get(name, 0)
            for name, draws in self._entries.items()
            if len(draws) > self._cursors.get(name, 0)
        }

    # -- serialization --------------------------------------------------- #
    def to_dict(self) -> dict:
        """JSON-serializable form.  Floats round-trip exactly through
        ``json`` (shortest-repr encoding), so a log written to disk and
        read back replays bit-identically."""
        return {
            "digest": self.digest(),
            "n_draws": self.n_draws,
            "streams": {
                name: [[method, value] for method, value in draws]
                for name, draws in self._entries.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict, mode: str = "replay") -> "NDLog":
        log = cls(mode="record")
        for name in sorted(data.get("streams", {})):
            for method, value in data["streams"][name]:
                log.record(name, method, value)
        # Checked while still in record mode, where the digest covers every
        # entry: a corrupted/edited log is refused before any replay begins.
        declared = data.get("digest")
        computed = log.digest()
        if declared is not None and declared != computed:
            raise ReplayDivergence(
                "<log>", 0,
                f"log digest mismatch: file says {declared}, entries hash "
                f"to {computed}")
        log.mode = mode
        return log


# --------------------------------------------------------------------------- #
# Stream wrappers                                                             #
# --------------------------------------------------------------------------- #


class _RecordStream:
    """Record-mode stream: draw from the seeded generator, log the value.

    Only the draw methods the simulator calls are wrapped; any other method
    raises ``AttributeError`` rather than drawing around the log."""

    def __init__(self, log: NDLog, name: str, rng) -> None:
        self._log = log
        self._name = name
        self._rng = rng

    def random(self) -> float:
        return self._log.record(self._name, "random", self._rng.random())

    def randrange(self, *args: int) -> int:
        return self._log.record(
            self._name, "randrange", self._rng.randrange(*args))

    def expovariate(self, lambd: float) -> float:
        return self._log.record(
            self._name, "expovariate", self._rng.expovariate(lambd))


class _ReplayStream:
    """Replay-mode stream: every draw is served from the log alone; the
    seeded generator is never consulted."""

    def __init__(self, log: NDLog, name: str) -> None:
        self._log = log
        self._name = name

    def random(self) -> float:
        return self._log.replay(self._name, "random")

    def randrange(self, *args: int) -> int:
        return self._log.replay(self._name, "randrange")

    def expovariate(self, lambd: float) -> float:
        return self._log.replay(self._name, "expovariate")


class _RegistryRecorder:
    """The hook object :meth:`RngRegistry.set_recorder` expects: wraps each
    named stream in a record- or replay-mode adapter per ``log.mode``."""

    __nd_exempt__ = True

    def __init__(self, log: NDLog) -> None:
        self.log = log

    def wrap(self, name: str, rng):
        if self.log.mode == "record":
            return _RecordStream(self.log, name, rng)
        return _ReplayStream(self.log, name)


# --------------------------------------------------------------------------- #
# Tie-break wrappers                                                          #
# --------------------------------------------------------------------------- #


class RecordingTieBreak:
    """Wraps any tie-break policy; every key decision lands in the NDLog."""

    __nd_exempt__ = True

    def __init__(self, log: NDLog, inner: Any) -> None:
        self._log = log
        self._inner = inner

    def key(self, ctx_serial: int) -> int:
        return self._log.record(
            TIEBREAK_STREAM, "key", self._inner.key(ctx_serial))


class ReplayTieBreak:
    """Serves tie-break keys from the log — no policy object needed."""

    __nd_exempt__ = True

    def __init__(self, log: NDLog) -> None:
        self._log = log

    def key(self, ctx_serial: int) -> int:
        return self._log.replay(TIEBREAK_STREAM, "key")


# --------------------------------------------------------------------------- #
# Installation                                                                #
# --------------------------------------------------------------------------- #


def attach_ndlog(world: "World", log: NDLog) -> NDLog:
    """Wire *log* into a world, per ``log.mode``.

    Record mode wraps the world's :class:`~repro.sim.rng.RngRegistry` (so
    every named-stream draw is logged) and any installed engine tie-break
    policy.  Replay mode replaces both with log-fed adapters: streams and
    tie-breaks are served from the log alone, and a tie-break replayer is
    installed only if tie-break decisions were recorded.
    """
    world.rng.set_recorder(_RegistryRecorder(log))
    engine = world.engine
    if log.mode == "record":
        if engine._tiebreak is not None:
            engine.set_tiebreak(RecordingTieBreak(log, engine._tiebreak))
    elif log.has_stream(TIEBREAK_STREAM):
        engine.set_tiebreak(ReplayTieBreak(log))
    else:
        engine.set_tiebreak(None)
    return log


def detach_ndlog(world: "World") -> None:
    """Unwire any attached NDLog from *world*.

    Must run as soon as the measured window closes: leftover workload
    generators are finalized by the garbage collector at arbitrary later
    points, and their semaphore releases schedule events that would draw
    tie-breaks — post-run noise the record and replay sides would see at
    *different* times, poisoning an otherwise identical log.
    """
    world.rng.set_recorder(None)
    engine = world.engine
    tiebreak = engine._tiebreak
    if isinstance(tiebreak, RecordingTieBreak):
        engine.set_tiebreak(tiebreak._inner)
    elif isinstance(tiebreak, ReplayTieBreak):
        engine.set_tiebreak(None)

