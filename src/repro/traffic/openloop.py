"""Open-loop traffic generation: seeded Poisson / on-off session arrivals.

Closed-loop clients (:mod:`repro.workloads.clients`) wait for each reply
before sending again, so a slow server *slows the offered load down* and
hides its own latency — the coordinated-omission trap.  An open-loop
generator arrives sessions on a schedule that ignores completions: when
the fleet stalls (an epoch commit, a failover), sessions pile up and the
latency tail records the stall at full weight.  That is the load shape
"millions of users" actually present — users do not coordinate.

Arrivals ride :mod:`repro.sim.rng` named streams, so two same-seed runs
produce the identical arrival schedule (no wall-clock, no global
``random``).  Every session is one lightweight process: connect to the
proxy, a handful of request/reply round trips with think time, close.
Thousands run concurrently; sessions share TCP stacks in groups to keep
the device count bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.kernel.errors import ConnectionReset
from repro.kernel.netdev import NetDevice
from repro.kernel.tcp import TcpStack
from repro.metrics.histogram import LatencyHistogram
from repro.sim import ms, sec
from repro.traffic.proxy import REPLY_BYTES, REQUEST_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.world import World

__all__ = ["OpenLoopStats", "OpenLoopTraffic", "TrafficProfile"]


@dataclass(frozen=True)
class TrafficProfile:
    """One workload shape for the open-loop generator."""

    name: str
    #: "poisson" (constant-rate) or "onoff" (bursts of Poisson arrivals
    #: separated by silences).
    arrival: str = "poisson"
    #: Session arrival rate while ON, sessions/second.
    rate_rps: float = 200.0
    #: ON/OFF phase lengths (onoff only).
    on_us: int = ms(400)
    off_us: int = ms(400)
    requests_per_session: int = 3
    think_us: int = ms(400)
    #: Arrival window length; sessions arriving late still finish inside
    #: the run's drain tail.
    duration_us: int = sec(2)


@dataclass
class OpenLoopStats:
    """Generator-side accounting (the client side of the SLO table)."""

    sessions_started: int = 0
    sessions_finished: int = 0
    concurrent: int = 0
    peak_concurrent: int = 0
    sent: int = 0
    completed: int = 0
    errors: int = 0
    timeouts: int = 0
    validation_failures: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def in_flight(self) -> int:
        """Requests truncated by the end of the run (sent, no verdict)."""
        return self.sent - self.completed - self.errors - self.timeouts

    def to_dict(self) -> dict[str, Any]:
        return {
            "sessions_started": self.sessions_started,
            "sessions_finished": self.sessions_finished,
            "peak_concurrent": self.peak_concurrent,
            "sent": self.sent,
            "completed": self.completed,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "validation_failures": self.validation_failures,
            "latency": self.latency.to_dict(),
        }


class OpenLoopTraffic:
    """Spawns sessions against the proxy per a :class:`TrafficProfile`."""

    #: Sessions per shared client TCP stack (bounds bridge device count).
    SESSIONS_PER_STACK = 64
    #: Per-request give-up deadline.  Far above any legitimate stall
    #: (worst failover ≈ 2-3 s); exists so a lost reply cannot wedge a
    #: session process forever.
    REQUEST_DEADLINE_US = sec(8)

    def __init__(
        self,
        world: "World",
        proxy_ip: str,
        proxy_port: int,
        profile: TrafficProfile,
    ) -> None:
        self.world = world
        self.engine = world.engine
        self.proxy_ip = proxy_ip
        self.proxy_port = proxy_port
        self.profile = profile
        self.stats = OpenLoopStats()
        self.rng = world.rng.stream(
            f"traffic.{profile.name}"  # nd: logged -- one registry stream per profile
        )
        self._stacks: list[TcpStack] = []

    def start(self) -> None:
        self.engine.process(
            self._arrivals(), name=f"traffic-arrivals-{self.profile.name}"
        )

    # -- infrastructure -------------------------------------------------- #
    def _stack_for(self, session_index: int) -> TcpStack:
        index = session_index // self.SESSIONS_PER_STACK
        while len(self._stacks) <= index:
            i = len(self._stacks)
            # 10.0.8.0/24 is the traffic tier (proxy at .1, generators
            # from .16) — disjoint from members (10.0.2.x) and legacy
            # clients (10.0.9.x), so no IP ever collides.
            ip = f"10.0.8.{16 + i}"
            stack = TcpStack(self.engine, self.world.costs, ip,
                             name=f"traffic-gen{i}")
            device = NetDevice(f"traffic-gen{i}-eth0", ip, f"ab:{i:02x}",
                               self.engine)
            stack.attach_device(device)
            self.world.bridge.attach(device)
            self._stacks.append(stack)
        return self._stacks[index]

    # -- arrivals --------------------------------------------------------- #
    def _arrivals(self) -> Generator[Any, Any, None]:
        profile = self.profile
        engine = self.engine
        end = engine.now + profile.duration_us
        mean_gap_us = 1e6 / profile.rate_rps
        serial = 0
        while engine.now < end:
            if profile.arrival == "onoff":
                phase_end = min(end, engine.now + profile.on_us)
                while engine.now < phase_end:
                    yield engine.timeout(
                        max(1, int(self.rng.expovariate(1.0) * mean_gap_us))
                    )
                    if engine.now >= phase_end:
                        break
                    serial += 1
                    self._spawn(serial)
                if engine.now < end:
                    yield engine.timeout(profile.off_us)
            else:
                yield engine.timeout(
                    max(1, int(self.rng.expovariate(1.0) * mean_gap_us))
                )
                if engine.now >= end:
                    break
                serial += 1
                self._spawn(serial)

    def _spawn(self, serial: int) -> None:
        stack = self._stack_for(serial - 1)
        self.engine.process(
            self._session(serial, stack),
            name=f"traffic-session-{self.profile.name}-{serial}",
        )

    # -- sessions --------------------------------------------------------- #
    def _session(self, serial: int, stack: TcpStack):
        stats = self.stats
        stats.sessions_started += 1
        stats.concurrent += 1
        stats.peak_concurrent = max(stats.peak_concurrent, stats.concurrent)
        try:
            yield from self._session_body(serial, stack)
        finally:
            stats.concurrent -= 1
            stats.sessions_finished += 1

    def _session_body(self, serial: int, stack: TcpStack):
        engine = self.engine
        stats = self.stats
        profile = self.profile
        sock = stack.socket()
        try:
            yield sock.connect(self.proxy_ip, self.proxy_port)
        except ConnectionReset:  # ft: defensive -- recorded as a client-visible error; the SLO oracle judges it
            stats.errors += 1
            return
        for r in range(profile.requests_per_session):
            payload = f"{serial % 1_000_000:06d}{r % 100:02d}".encode()
            assert len(payload) == REQUEST_BYTES
            sent_at = engine.now
            stats.sent += 1
            sock.send(payload)
            deadline = sent_at + self.REQUEST_DEADLINE_US
            reply = b""
            while len(reply) < REPLY_BYTES:
                recv_ev = sock.recv(REPLY_BYTES - len(reply))
                try:
                    fired = yield engine.any_of([
                        recv_ev,
                        engine.timeout(max(1, deadline - engine.now)),
                    ])
                except ConnectionReset:  # ft: defensive -- recorded as a client-visible error; the SLO oracle judges it
                    stats.errors += 1
                    return
                if recv_ev not in fired:
                    stats.timeouts += 1
                    return  # abandon the session; the oracle counts this
                chunk = fired[recv_ev]
                if chunk == b"":
                    stats.errors += 1
                    return
                reply += chunk
            if reply[:4] != b"PONG":
                stats.validation_failures += 1
            else:
                stats.latency.record(engine.now - sent_at)
            stats.completed += 1
            if profile.think_us and r + 1 < profile.requests_per_session:
                yield engine.timeout(profile.think_us)
        sock.close()
