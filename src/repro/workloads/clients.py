"""Client generators: saturating drivers and latency probes.

Two shapes, mirroring the paper's methodology (§VI, §VII-C):

* :class:`PipelinedClient` — one connection keeping a window of requests in
  flight (the hiredis-style batched KV driver).  Saturates a server through
  output-commit latency without inflating the container's socket count.
* :class:`ClosedLoopClients` — N connections, each with one request in
  flight (the SIEGE-style web driver); N is the concurrency knob of the
  scalability experiments.

Both validate every response via the workload-provided checker and record
latencies into :class:`~repro.workloads.base.ClientStats`; a response that
fails its check is a validation failure, never a latency sample (a corrupt
fast reply would otherwise *improve* the reported percentiles).  Clients run on
the client host and survive primary failover through ordinary TCP
retransmission — there is no reconnect logic, which is the point: failover
must be client-transparent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.kernel.errors import ConnectionReset
from repro.kernel.netdev import NetDevice
from repro.kernel.tcp import TcpStack
from repro.sim.units import sec
from repro.workloads import protocol
from repro.workloads.base import ClientStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.world import World

__all__ = ["ClosedLoopClients", "PipelinedClient", "make_client_stack"]

#: (request body, response validator, operation count) for request *i*.
RequestFactory = Callable[[int], tuple[bytes, Callable[[bytes], str | None], int]]

#: Slack past ``run_until_us`` before a blocked recv gives up.  Must exceed
#: the worst-case failover stall (detection + restore, ~3 s) so a deadline
#: never fires on a request that legitimately survives recovery.
RECV_GRACE_US = sec(5)

_client_ips = 0


def make_client_stack(world: "World", name: str = "client") -> TcpStack:
    """A TCP stack on the client host, attached to the client network."""
    global _client_ips
    _client_ips += 1
    ip = f"10.0.9.{_client_ips}"
    stack = TcpStack(world.engine, world.costs, ip, name=name)
    dev = NetDevice(f"{name}-eth", ip, f"0c:{_client_ips:02x}", world.engine)
    stack.attach_device(dev)
    world.bridge.attach(dev)
    return stack


class PipelinedClient:
    """Single connection, windowed pipeline of framed requests."""

    def __init__(
        self,
        world: "World",
        server_ip: str,
        port: int,
        make_request: RequestFactory,
        stats: ClientStats,
        window: int = 16,
        n_requests: int | None = None,
        run_until_us: int | None = None,
    ) -> None:
        self.world = world
        self.server_ip = server_ip
        self.port = port
        self.make_request = make_request
        self.stats = stats
        self.window = window
        self.n_requests = n_requests
        self.run_until_us = run_until_us
        self.stack = make_client_stack(world, name="kv-client")
        self._inflight: list[tuple[int, int, Callable, int]] = []  # (i, sent_at, check, ops)
        self._sent = 0
        self.done = False

    def start(self) -> None:
        self.world.engine.process(self._run(), name="pipelined-client")

    def _more(self) -> bool:
        if self.n_requests is not None and self._sent >= self.n_requests:
            return False
        if self.run_until_us is not None and self.world.now >= self.run_until_us:
            return False
        return True

    def _run(self):
        sock = self.stack.socket()
        try:
            yield sock.connect(self.server_ip, self.port)
        except ConnectionReset:
            self.stats.errors += 1
            self.done = True
            return
        buffered = bytearray()
        while self._more() or self._inflight:
            # Fill the window.
            while self._more() and len(self._inflight) < self.window:
                body, check, ops = self.make_request(self._sent)
                sock.send(protocol.frame(body))
                self._inflight.append((self._sent, self.world.now, check, ops))
                self._sent += 1
            if not self._inflight:
                break
            # Await the next response frame (FIFO within a connection).
            try:
                chunk = yield sock.recv(1 << 16)
            except ConnectionReset:
                # Every request still in flight is abandoned, not just the
                # one we were waiting on.
                self.stats.errors += len(self._inflight)
                break
            if chunk == b"":
                # Server half-closed with k requests in flight: all k are
                # abandoned (a single shared error would under-count).
                self.stats.errors += len(self._inflight)
                break
            buffered += chunk
            while (frame_body := protocol.pop_frame(buffered)) is not None:
                i, sent_at, check, ops = self._inflight.pop(0)
                failure = check(frame_body)
                if failure is not None:
                    self.stats.validation_failures.append(f"req {i}: {failure}")
                else:
                    self.stats.latencies_us.append(self.world.now - sent_at)
                self.stats.completed += 1
                self.stats.operations += ops
                self.stats.bytes_received += len(frame_body)
        self.done = True


class ClosedLoopClients:
    """N connections, one request in flight each (SIEGE-style)."""

    def __init__(
        self,
        world: "World",
        server_ip: str,
        port: int,
        make_request: RequestFactory,
        stats: ClientStats,
        n_clients: int = 8,
        think_us: int = 0,
        n_requests_per_client: int | None = None,
        run_until_us: int | None = None,
    ) -> None:
        self.world = world
        self.server_ip = server_ip
        self.port = port
        self.make_request = make_request
        self.stats = stats
        self.n_clients = n_clients
        self.think_us = think_us
        self.n_requests_per_client = n_requests_per_client
        self.run_until_us = run_until_us
        self.stack = make_client_stack(world, name="web-clients")
        self._request_counter = 0
        self._finished = 0

    @property
    def done(self) -> bool:
        return self._finished >= self.n_clients

    def start(self) -> None:
        for c in range(self.n_clients):
            self.world.engine.process(self._client(c), name=f"client-{c}")

    def _client(self, index: int):
        # ``finally`` is the only exit path allowed to touch ``_finished``:
        # every return/break/exception funnels through it exactly once, so
        # ``done`` cannot stick false after a client dies.
        try:
            yield from self._client_loop(index)
        finally:
            self._finished += 1

    def _client_loop(self, index: int):
        engine = self.world.engine
        sock = self.stack.socket()
        try:
            yield sock.connect(self.server_ip, self.port)
        except ConnectionReset:
            self.stats.errors += 1
            return
        sent = 0
        buffered = bytearray()
        # A response deadline of run end plus RECV_GRACE_US: generous
        # enough to ride out a failover, but finite, so an upstream that
        # stalls forever cannot wedge a client blocked in recv.
        deadline = None if self.run_until_us is None else self.run_until_us + RECV_GRACE_US
        while True:
            if self.n_requests_per_client is not None and sent >= self.n_requests_per_client:
                break
            if self.run_until_us is not None and self.world.now >= self.run_until_us:
                break
            self._request_counter += 1
            body, check, ops = self.make_request(self._request_counter)
            sock.send(protocol.frame(body))
            sent += 1
            start = self.world.now
            frame_body = None
            failed = False
            while frame_body is None:
                recv_ev = sock.recv(1 << 16)
                try:
                    if deadline is None:
                        chunk = yield recv_ev
                    else:
                        fired = yield engine.any_of([
                            recv_ev,
                            engine.timeout(max(0, deadline - self.world.now)),
                        ])
                        if recv_ev not in fired:
                            # Deadline expired with the request outstanding:
                            # abandon it (the leaked recv waiter is inert —
                            # this client never reads again).
                            self.stats.errors += 1
                            failed = True
                            break
                        chunk = fired[recv_ev]
                except ConnectionReset:
                    self.stats.errors += 1
                    failed = True
                    break
                if chunk == b"":
                    self.stats.errors += 1
                    failed = True
                    break
                buffered += chunk
                frame_body = protocol.pop_frame(buffered)
            if failed:
                break
            failure = check(frame_body)
            if failure is not None:
                self.stats.validation_failures.append(f"client {index}: {failure}")
            else:
                self.stats.latencies_us.append(self.world.now - start)
            self.stats.completed += 1
            self.stats.operations += ops
            self.stats.bytes_received += len(frame_body)
            if self.think_us:
                yield self.world.engine.timeout(self.think_us)
