"""Acknowledged-write validation workload for fleet experiments, and the
one way to stand up a fleet world (:func:`open_fleet`).

Each member runs the counter service the failover tests use: an 8-byte
``PINGxxxx`` request increments a counter page in checkpointed container
memory and the reply carries the new count.  Replies are held behind the
output-commit barrier until the backup commits, so *any count a client
observed* is state the fleet must never lose — across failovers,
re-protections and migrations the per-member count sequence must stay
strictly increasing with no repeats.

:func:`open_fleet` builds a fleet cell in one fixed order (identity
counters, world, instrument, tracer, pool, controller, deploy, services,
clients, start), and :meth:`FleetCell.violations` is the one oracle list
every fleet experiment applies: the clients' observations, the
controller's audit, every member's end state and the tracer's
completeness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Generator, Sequence

from repro.fleet.controller import FleetController
from repro.fleet.placement import PlacementDecision
from repro.fleet.pool import HostPool
from repro.fleet.spec import FleetSpec
from repro.kernel.netdev import NetDevice
from repro.kernel.tcp import TcpStack
from repro.net.world import World, reset_id_counters
from repro.replication.config import NiliconConfig
from repro.sim import Interrupt, ms
from repro.sim.trace import Tracer, install_tracer

__all__ = ["CounterService", "FleetCell", "FleetWorkload", "MemberClientStats",
           "PORT", "open_fleet"]

PORT = 7777


class CounterService:
    """The replicated workload: re-attachable after failover/migration.

    ``touch_pages`` > 1 makes every request scribble on that many extra
    heap pages (the bench uses it to fatten per-epoch state transfers and
    expose pair-link contention); the counter semantics are unchanged.
    """

    def __init__(self, world: "World", touch_pages: int = 1) -> None:
        self.world = world
        self.touch_pages = touch_pages
        self.container = None

    def attach(self, container) -> None:
        self.container = container
        stack = container.stack
        listener = stack.listeners.get(PORT)
        if listener is None:
            listener = stack.socket()
            listener.listen(PORT)
        self.world.engine.process(self._accept_loop(container, listener))
        # Restored connections resume mid-stream (TCP repair mode).
        for sock in list(stack.connections.values()):
            self.world.engine.process(self._handler(container, sock))

    def _counter_page(self, container):
        return container.heap_vma.start  # counter lives in page 0 of heap

    def read_counter(self, container) -> int:
        raw = container.processes[0].mm.read(self._counter_page(container))
        return int(raw or b"0")

    def _accept_loop(self, container, listener):
        while not container.dead:
            try:
                child = yield listener.accept()
            except Interrupt:  # ft: teardown -- accept loop dies with its killed container
                return
            self.world.engine.process(self._handler(container, child))

    def _handler(self, container, sock):
        proc = container.processes[0]
        page = self._counter_page(container)
        buffered = b""
        while not container.dead:
            try:
                data = yield sock.recv(4096)
            except Interrupt:  # ft: teardown -- handler dies with its killed container
                return
            except Exception:  # ft: defensive -- socket torn down under recv; the client's reconnect path owns recovery
                return
            if data == b"":
                return
            buffered += data
            while len(buffered) >= 8:
                request, buffered = buffered[:8], buffered[8:]
                if container.dead:
                    return

                def mutate():
                    value = int(proc.mm.read(page) or b"0") + 1
                    proc.mm.write(page, str(value).encode())
                    for extra in range(1, self.touch_pages):
                        proc.mm.write(page + extra, f"v{value}".encode())

                try:
                    yield from container.run_slice(proc, 200, mutate=mutate)
                except Interrupt:  # ft: teardown -- container killed mid-slice; the reply is never sent (output-commit holds)
                    return
                except Exception:  # ft: defensive -- slice on a dying container; client-side oracles account the lost reply
                    return
                count = int(proc.mm.read(page) or b"0")
                sock.send(b"PONG" + str(count).zfill(8).encode())


@dataclass
class MemberClientStats:
    """One client's observations of one member."""

    member: str
    completed: int = 0
    reconnects: int = 0
    errors: list[str] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)
    #: Sum of request round-trip times (send -> full acked reply).
    total_latency_us: int = 0

    def mean_latency_us(self) -> float:
        return self.total_latency_us / self.completed if self.completed else 0.0

    def violations(self) -> list[str]:
        problems = list(self.errors)
        for prev, cur in zip(self.counts, self.counts[1:]):
            if cur <= prev:
                problems.append(
                    f"{self.member}: observed count {prev} -> {cur} "
                    f"(acknowledged write lost or replayed)"
                )
        return problems


class FleetWorkload:
    """One counter service plus one validating client per fleet member."""

    def __init__(self, world: "World", controller: "FleetController",
                 gap_us: int = ms(10), touch_pages: int = 1) -> None:
        self.world = world
        self.controller = controller
        self.gap_us = gap_us
        self.touch_pages = touch_pages
        self.services: dict[str, CounterService] = {}
        self.stats: dict[str, MemberClientStats] = {}

    def attach_services(self) -> None:
        """Attach a service to every member and register its re-attach
        hook with the controller; call right after ``deploy()``."""
        for name in sorted(self.controller.members):
            member = self.controller.members[name]
            service = CounterService(self.world, touch_pages=self.touch_pages)
            service.attach(member.container)
            self.services[name] = service
            self.controller.register_service(name, service.attach)

    def start_clients(self, n_requests: int = 40) -> None:
        for index, name in enumerate(sorted(self.controller.members)):
            member = self.controller.members[name]
            stack = self._make_client_stack(index)
            stats = MemberClientStats(member=name)
            self.stats[name] = stats
            self.world.engine.process(
                self._client_loop(stack, member.spec.ip, stats, n_requests),
                name=f"fleet-client-{name}",
            )

    def _make_client_stack(self, index: int) -> TcpStack:
        ip = f"10.0.9.{10 + index}"
        stack = TcpStack(self.world.engine, self.world.costs, ip,
                         name=f"fleet-client{index}")
        device = NetDevice(f"fleet-client{index}-eth0", ip,
                           f"cc:{index:02x}", self.world.engine)
        stack.attach_device(device)
        self.world.bridge.attach(device)
        return stack

    def _client_loop(self, stack, server_ip, stats, n_requests):
        engine = self.world.engine
        sock = stack.socket()
        yield sock.connect(server_ip, PORT)
        i = 0
        while i < n_requests:
            sent_at = engine.now
            sock.send(f"PING{i:04d}".encode())
            reply = b""
            closed = False
            while len(reply) < 12:
                chunk = yield sock.recv(12 - len(reply))
                if chunk == b"":
                    closed = True
                    break
                reply += chunk
            if closed:
                # The connection died (e.g. the member is gone, or an edge
                # the repair path does not preserve); reconnect and retry
                # the request — the count sequence must *still* be
                # monotonic across the retry.
                stats.reconnects += 1
                if stats.reconnects > 5:
                    stats.errors.append(
                        f"{stats.member}: gave up after 5 reconnects"
                    )
                    return
                sock = stack.socket()
                yield sock.connect(server_ip, PORT)
                continue
            if reply[:4] != b"PONG":
                stats.errors.append(f"{stats.member}: bad reply {reply!r}")
                return
            stats.counts.append(int(reply[4:]))
            stats.completed += 1
            stats.total_latency_us += engine.now - sent_at
            i += 1
            yield engine.timeout(self.gap_us)

    # -- oracles --------------------------------------------------------- #
    def violations(self) -> list[str]:
        return [v for s in self.stats.values() for v in s.violations()]

    def total_completed(self) -> int:
        return sum(s.completed for s in self.stats.values())


@dataclass
class FleetCell:
    """One fleet world, stood up by :func:`open_fleet`."""

    world: World
    pool: HostPool
    controller: FleetController
    workload: FleetWorkload
    #: Installed only when :func:`open_fleet` was given a ``trace_limit``.
    tracer: Tracer | None = None
    #: ``(at_us, hosts)`` of every fail-stop :meth:`fail_host_at` injected.
    failstops: list[tuple[int, tuple[str, ...]]] = field(default_factory=list)

    def fail_host_at(self, at_us: int,
                     hosts: str | Callable[[], Sequence[str]]) -> None:
        """Fail-stop *hosts* at simulated time *at_us*, all in the same
        instant: one host name, or a callable that picks the names when
        the time comes."""
        engine = self.world.engine

        def timeline() -> Generator[Any, Any, None]:
            yield engine.timeout(at_us - engine.now)
            names = (hosts,) if isinstance(hosts, str) else tuple(hosts())
            self.failstops.append((engine.now, names))
            for name in names:
                self.controller.inject_host_failstop(self.pool.host(name))

        engine.process(timeline(), name=f"failstop-at-{at_us}")

    def run(self, until_us: int) -> None:
        """Run the world to *until_us*, then stop the controller."""
        self.world.run(until=until_us)
        self.controller.stop()

    def violations(self, expect_dead: Collection[str] = ()) -> list[str]:
        """The shared fleet oracles (empty = pass): no acknowledged write
        lost or replayed, the controller's audit, every member ends
        ``protected`` (``dead`` for the members in *expect_dead*) and a
        tracer, when installed, dropped no event."""
        problems = self.workload.violations() + self.controller.audit()
        for name in sorted(self.controller.members):
            state = self.controller.members[name].state
            if name in expect_dead:
                if state != "dead":
                    problems.append(f"{name}: expected dead, is {state}")
            elif state != "protected":
                problems.append(f"{name}: ended {state}, expected protected")
        if self.tracer is not None and self.tracer.dropped:
            problems.append(
                f"tracer dropped {self.tracer.dropped} event(s): digest is "
                f"poisoned, raise trace_limit"
            )
        return problems


def open_fleet(
    seed: int,
    fleet: FleetSpec,
    *,
    config: NiliconConfig | None = None,
    decisions: Sequence[PlacementDecision] | None = None,
    instrument: Callable[[World], None] | None = None,
    trace_limit: int | None = None,
    n_requests: int | None = None,
    gap_us: int = ms(10),
    touch_pages: int = 1,
) -> FleetCell:
    """Stand up one fleet cell, started and ready to run.

    The identity counters are rewound first: serialized checkpoint images
    embed process-global ids (pids, inode numbers), so a same-seed replay
    in the same process is byte-identical, not just behaviourally
    identical.  *instrument* is called with the fresh :class:`World`
    before anything else is built (the ftcov recorder installs itself
    there); a tracer is installed only when *trace_limit* is given;
    *decisions* pins the placement (``None`` runs the policy).  Every
    member gets a counter service, and a validating client sending
    *n_requests* requests *gap_us* apart unless *n_requests* is ``None``
    (the traffic tier's proxied sessions are then the clients).
    """
    reset_id_counters()
    world = World(seed=seed)
    if instrument is not None:
        instrument(world)
    tracer = None
    if trace_limit is not None:
        tracer = install_tracer(world.engine, limit=trace_limit)
    pool = HostPool(world, fleet.n_hosts, slots_per_host=fleet.slots_per_host)
    controller = FleetController(
        world, pool, fleet_spec=fleet,
        config=config if config is not None else NiliconConfig.nilicon(),
        seed=seed,
    )
    controller.deploy(decisions=None if decisions is None else list(decisions))
    workload = FleetWorkload(world, controller, gap_us=gap_us,
                             touch_pages=touch_pages)
    workload.attach_services()
    if n_requests is not None:
        workload.start_clients(n_requests=n_requests)
    controller.start()
    return FleetCell(world, pool, controller, workload, tracer)
