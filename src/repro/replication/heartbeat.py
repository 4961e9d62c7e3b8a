"""The fail-stop failure detector (paper §IV).

The primary agent sends a heartbeat to the backup every 30 ms *as long as
the container's CPU usage is increasing* (read from the cgroup's
``cpuacct.usage``).  A keep-alive process inside the container guarantees
usage keeps increasing while the container is healthy, so a silent
heartbeat stream means the container/host is dead, not idle.  The backup
declares failure after three consecutive missed intervals — a mean
detection latency of ~90 ms.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.net.link import Endpoint
from repro.sim.access import record_access
from repro.sim.engine import Engine, Process

__all__ = ["FailureDetector", "HeartbeatSender", "MISS_THRESHOLD"]

#: Consecutive empty heartbeat intervals that declare the primary failed.
MISS_THRESHOLD = 3


class HeartbeatSender:
    """Primary-side heartbeat loop."""

    def __init__(
        self,
        engine: Engine,
        endpoint: Endpoint,
        read_cpuacct: Callable[[], int],
        interval_us: int = 30_000,
    ) -> None:
        self.engine = engine
        self.endpoint = endpoint
        self.read_cpuacct = read_cpuacct
        self.interval_us = interval_us
        self.sent = 0
        self.skipped_idle = 0
        self._stopped = False
        self._process: Process | None = None

    def start(self) -> Process:
        self._process = self.engine.process(self._run(), name="heartbeat-sender")
        return self._process

    def stop(self) -> None:
        self._stopped = True

    def _run(self) -> Generator[Any, Any, None]:
        last_usage = self.read_cpuacct()
        while not self._stopped:  # ft: bounded -- stop() flips _stopped; each pass sleeps one heartbeat interval
            yield self.engine.timeout(self.interval_us)
            if self._stopped:
                return
            usage = self.read_cpuacct()
            if usage > last_usage:
                self.endpoint.send({"kind": "heartbeat", "usage": usage}, size_bytes=64)
                self.sent += 1
            else:
                # Container made no progress: withhold the heartbeat.  The
                # keep-alive process makes this happen only when something
                # is genuinely wrong.
                self.skipped_idle += 1
            last_usage = usage


class FailureDetector:
    """Backup-side miss counter.

    The backup agent feeds heartbeat arrivals in via :meth:`on_heartbeat`;
    the detector's own loop checks, every interval, whether any heartbeat
    arrived.  After :data:`MISS_THRESHOLD` consecutive empty intervals it
    fires ``on_failure`` once.
    """

    def __init__(
        self,
        engine: Engine,
        on_failure: Callable[[], None],
        interval_us: int = 30_000,
    ) -> None:
        self.engine = engine
        self.on_failure = on_failure
        self.interval_us = interval_us
        self._last_beat_at: int | None = None
        self._misses = 0
        self.fired = False
        self.fired_at: int | None = None
        self._stopped = False

    @property
    def armed(self) -> bool:
        """True once at least one heartbeat has been seen — only then do
        empty windows count as misses (see :meth:`_run`)."""
        return self._last_beat_at is not None

    @property
    def misses(self) -> int:
        """Consecutive empty windows counted so far (diagnostics/tests)."""
        return self._misses

    def on_heartbeat(self) -> None:
        record_access(self.engine, self, "heartbeat_window", "w",
                      site="detector.on_heartbeat")
        self._last_beat_at = self.engine.now
        self._misses = 0

    def start(self) -> Process:
        return self.engine.process(self._run(), name="failure-detector")

    def stop(self) -> None:
        self._stopped = True

    def _run(self) -> Generator[Any, Any, None]:
        window_start = self.engine.now
        while not (self._stopped or self.fired):  # ft: bounded -- exits when stopped or the detector fires; each pass sleeps one interval
            yield self.engine.timeout(self.interval_us)
            if self._stopped:
                return
            if self._last_beat_at is None:
                # Not yet armed: the detector starts counting misses only
                # once the primary has produced its first heartbeat —
                # otherwise the long initial full checkpoint (during which
                # the frozen container makes no cpuacct progress) would be
                # misread as a failure.
                window_start = self.engine.now
                continue
            record_access(self.engine, self, "heartbeat_window", "r",
                          site="detector.window_check")
            beat_in_window = self._last_beat_at >= window_start
            window_start = self.engine.now
            if beat_in_window:
                self._misses = 0
                continue
            self._misses += 1
            if self._misses >= MISS_THRESHOLD:
                self.fired = True
                self.fired_at = self.engine.now
                self.on_failure()
                return
