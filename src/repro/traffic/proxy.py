"""Simulated L7 reverse proxy / load balancer in front of the fleet.

One proxy actor owns a TCP stack on the world bridge and fronts every
fleet member's counter service (:mod:`repro.fleet.service`).  Clients open
keep-alive sessions to the proxy and send 8-byte requests; the proxy
routes each request to a healthy member over a pooled upstream connection
and relays the 12-byte reply.

The pieces the fault-tolerance story needs:

* **Routing** — per-request, deterministic: sessions stick to their
  member while it stays routable (keep-alive affinity keeps a session's
  count sequence on one member) and are re-pinned round-robin when their
  member is evicted, draining or dead.
* **Health checks** — a prober per member sends a probe request every
  :data:`HEALTH_INTERVAL_US`; :data:`PROBES_TO_EVICT` consecutive misses
  (no reply within :data:`HEALTH_TIMEOUT_US`) evict the upstream, the first
  subsequent reply readmits it.  Output-commit makes even healthy replies
  arrive in epoch bursts, so the timeout must sit well above an epoch.
* **Controller signals** — the proxy subscribes to
  ``FleetController.state_listeners``: ``migrating`` begins a drain,
  ``dead`` evicts immediately, ``protected`` readmits (the health prober
  would discover all three, but the controller knows first).
* **Draining** — :meth:`TrafficProxy.drain` stops routing *new* requests
  to a member and waits until its in-flight count reaches zero; the
  migration campaign wraps ``migrate_container`` in drain/undrain so no
  request is in flight across the cutover.
* **Retry** — an upstream connection that dies (an edge the restore
  repair path does not preserve) reconnects and resends every request
  still in flight, mirroring the reconnect-and-retry contract of
  ``FleetWorkload``: acknowledged writes stay monotonic, and no routed
  request is ever silently dropped.

Epoch-stall samples: whenever an upstream reply arrives, the time since
the connection last made progress (clipped to the oldest in-flight
request's lifetime) is one client-visible stall sample.  Replies released
in the same commit burst contribute ~0; the first reply after a commit
contributes roughly the epoch interval; a failover contributes the full
outage.  The distribution's tail IS the client-visible cost the paper's
output-commit design pays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.kernel.errors import ConnectionReset
from repro.kernel.netdev import NetDevice
from repro.kernel.tcp import TcpStack
from repro.metrics.histogram import LatencyHistogram
from repro.sim import Interrupt, ms
from repro.sim.trace import trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.controller import FleetController
    from repro.net.world import World

from repro.fleet.service import PORT as UPSTREAM_PORT

__all__ = ["ProxyCounters", "TrafficProxy", "PROXY_PORT", "REQUEST_BYTES",
           "REPLY_BYTES"]

PROXY_PORT = 8088
REQUEST_BYTES = 8
REPLY_BYTES = 12

#: Pooled upstream connections per member.
CONNS_PER_MEMBER = 2
#: Health checks: a probe every interval; this many consecutive misses (no
#: reply within the timeout, which sits well above an epoch) evict.
HEALTH_INTERVAL_US = ms(120)
HEALTH_TIMEOUT_US = ms(900)
PROBES_TO_EVICT = 2
#: Draining polls the member's in-flight count at this period, for at most
#: the timeout.
DRAIN_POLL_US = ms(5)
DRAIN_TIMEOUT_US = ms(1500)

#: Member states the router considers assignable (controller signal).
_ROUTABLE_STATES = frozenset((
    "protected", "reprotect_pending", "reprotecting", "degraded",
))


@dataclass
class ProxyCounters:
    """Proxy-side accounting: the zero-drop oracle reads these."""

    routed: int = 0
    relayed: int = 0
    retries: int = 0
    reconnects: int = 0
    #: Requests the proxy accepted but could never answer (MUST stay 0:
    #: every routed request is either relayed or still in flight at the
    #: end of the run).
    dropped: int = 0
    evictions: int = 0
    readmissions: int = 0
    drains: int = 0
    probe_misses: int = 0
    per_member_routed: dict[str, int] = field(default_factory=dict)


class _UpstreamConn:
    """One pooled connection to one member's counter service.

    Requests from any session are pipelined FIFO; the counter protocol
    answers in order, so replies match ``pending`` head-first.  On a
    connection death every pending request is resent on the replacement
    connection — the member's service is restart-safe and the count
    sequence stays monotonic across the retry.
    """

    def __init__(self, upstream: "_Upstream", index: int) -> None:
        self.upstream = upstream
        self.index = index
        proxy = upstream.proxy
        self.engine = proxy.engine
        self.sock = None
        self.connected = False
        #: FIFO of (payload, reply event, sent_at_us).
        self.pending: deque[tuple[bytes, Any, int]] = deque()
        self._wake = None
        self.last_reply_at: int | None = None
        proxy.engine.process(
            self._run(),
            name=f"proxy-upstream-{upstream.member}-{index}",
        )

    @property
    def inflight(self) -> int:
        return len(self.pending)

    def submit(self, payload: bytes):
        """Queue *payload*; returns the event that fires with the reply."""
        event = self.engine.event()
        self.pending.append((payload, event, self.engine.now))
        if self.connected:
            self.sock.send(payload)
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)
        return event

    def _run(self) -> Generator[Any, Any, None]:
        proxy = self.upstream.proxy
        try:
            yield from self._connect()
            buffered = b""
            while not proxy.stopped:
                if not self.pending:
                    # Idle: park until the next submit.
                    self._wake = self.engine.event()
                    yield self._wake
                    self._wake = None
                    continue
                try:
                    chunk = yield self.sock.recv(1 << 16)
                except ConnectionReset:  # ft: defensive -- reset maps to connection-closed; the reconnect path below owns recovery
                    chunk = b""
                if chunk == b"":
                    # The connection died with requests in flight (an edge
                    # the repair path does not preserve, or the member is
                    # mid-recovery).  Reconnect and resend everything.
                    buffered = b""
                    yield from self._reconnect()
                    continue
                buffered += chunk
                while len(buffered) >= REPLY_BYTES and self.pending:
                    reply = buffered[:REPLY_BYTES]
                    buffered = buffered[REPLY_BYTES:]
                    self._complete(reply)
        except Interrupt:  # ft: teardown -- proxy stop interrupts the relay loop
            return

    def _complete(self, reply: bytes) -> None:
        now = self.engine.now
        _payload, event, sent_at = self.pending.popleft()
        # Counted here, not at the consumer, so routed == relayed +
        # in-flight holds exactly at any instant (run cut-offs included).
        self.upstream.proxy.counters.relayed += 1
        # Client-visible stall: time since this connection last made
        # progress, clipped to this request's lifetime.
        stall = now - max(
            self.last_reply_at if self.last_reply_at is not None else sent_at,
            sent_at,
        )
        self.last_reply_at = now
        self.upstream.stalls.record(stall)
        self.upstream.note_reply()
        if not event.triggered:
            event.succeed(reply)

    def _connect(self) -> Generator[Any, Any, None]:
        """(Re)establish the connection, then flush every request queued
        or in flight, oldest first (requests submitted while disconnected
        queue in ``pending`` and are sent here)."""
        proxy = self.upstream.proxy
        backoff = ms(50)
        while not proxy.stopped:  # ft: bounded -- retries until the proxy stops; backoff is capped and failover restores the upstream
            self.sock = proxy.stack.socket()
            try:
                yield self.sock.connect(self.upstream.ip, UPSTREAM_PORT)
            except ConnectionReset:  # ft: defensive -- connect refused while the member is down; retried with capped backoff
                yield self.engine.timeout(backoff)
                backoff = min(backoff * 2, ms(800))
                continue
            self.connected = True
            for payload, _event, _sent_at in self.pending:
                self.sock.send(payload)
            return

    def _reconnect(self) -> Generator[Any, Any, None]:
        proxy = self.upstream.proxy
        self.connected = False
        proxy.counters.reconnects += 1
        proxy.counters.retries += len(self.pending)
        yield from self._connect()


class _Upstream:
    """All proxy state for one fleet member."""

    def __init__(self, proxy: "TrafficProxy", member: str, ip: str,
                 n_conns: int) -> None:
        self.proxy = proxy
        self.member = member
        self.ip = ip
        self.healthy = True
        self.draining = False
        self.dead = False
        self.probe_misses = 0
        self.stalls = LatencyHistogram()
        self._rr = 0
        self.conns = [_UpstreamConn(self, i) for i in range(n_conns)]
        self._progress = None  # event: any reply arrived (prober watches)

    # -- routing state -------------------------------------------------- #
    @property
    def routable(self) -> bool:
        return self.healthy and not self.draining and not self.dead

    def inflight(self) -> int:
        return sum(conn.inflight for conn in self.conns)

    def pick_conn(self) -> _UpstreamConn:
        self._rr = (self._rr + 1) % len(self.conns)
        return self.conns[self._rr]

    def note_reply(self) -> None:
        if self._progress is not None and not self._progress.triggered:
            self._progress.succeed(None)
            self._progress = None

    # -- health --------------------------------------------------------- #
    def evict(self, reason: str) -> None:
        if not self.healthy:
            return
        self.healthy = False
        self.proxy.counters.evictions += 1
        trace(self.proxy.engine, "traffic", "evicted", member=self.member,
              reason=reason)

    def readmit(self, reason: str) -> None:
        if self.healthy:
            return
        self.healthy = True
        self.probe_misses = 0
        self.proxy.counters.readmissions += 1
        trace(self.proxy.engine, "traffic", "readmitted", member=self.member,
              reason=reason)


class TrafficProxy:
    """The L7 proxy actor: front listener + per-member upstream pools."""

    #: Infrastructure, never checkpointed with container state.
    __ckpt_ignore__ = True

    def __init__(
        self,
        world: "World",
        controller: "FleetController",
        *,
        ip: str = "10.0.8.1",
        port: int = PROXY_PORT,
    ) -> None:
        self.world = world
        self.engine = world.engine
        self.controller = controller
        self.ip = ip
        self.port = port
        self.counters = ProxyCounters()
        self.stopped = False
        self._probe_serial = 0
        self._rr_assign = 0

        self.stack = TcpStack(world.engine, world.costs, ip, name="l7-proxy")
        device = NetDevice("l7-proxy-eth0", ip, "aa:01", world.engine)
        self.stack.attach_device(device)
        world.bridge.attach(device)

        self.upstreams: dict[str, _Upstream] = {}
        for name in sorted(controller.members):
            member = controller.members[name]
            self.upstreams[name] = _Upstream(
                self, name, member.spec.ip, CONNS_PER_MEMBER
            )
        controller.state_listeners.append(self._on_member_state)

    # -- lifecycle ------------------------------------------------------ #
    def start(self) -> None:
        listener = self.stack.socket()
        listener.listen(self.port)
        self.engine.process(self._accept_loop(listener), name="proxy-accept")
        for name in sorted(self.upstreams):
            self.engine.process(
                self._probe_loop(self.upstreams[name]),
                name=f"proxy-probe-{name}",
            )

    def stop(self) -> None:
        self.stopped = True

    # -- controller signals --------------------------------------------- #
    def _on_member_state(self, member: str, state: str) -> None:
        upstream = self.upstreams.get(member)
        if upstream is None:
            return
        if state == "migrating":
            upstream.draining = True
            trace(self.engine, "traffic", "drain_begin", member=member,
                  reason="controller")
        elif state == "dead":
            upstream.dead = True
            upstream.evict("controller_dead")
        elif state in _ROUTABLE_STATES:
            if upstream.draining:
                upstream.draining = False
                trace(self.engine, "traffic", "drain_end", member=member,
                      reason="controller")
            upstream.dead = False

    # -- draining ------------------------------------------------------- #
    def drain(self, member: str) -> Generator[Any, Any, bool]:
        """Stop routing new requests to *member*, then wait for its
        in-flight count to reach zero (bounded by :data:`DRAIN_TIMEOUT_US`).
        Returns True when the member drained dry."""
        upstream = self.upstreams[member]
        if not upstream.draining:
            upstream.draining = True
            trace(self.engine, "traffic", "drain_begin", member=member,
                  reason="explicit")
        self.counters.drains += 1
        deadline = self.engine.now + DRAIN_TIMEOUT_US
        while upstream.inflight() and self.engine.now < deadline:
            yield self.engine.timeout(DRAIN_POLL_US)
        return upstream.inflight() == 0

    def undrain(self, member: str) -> None:
        upstream = self.upstreams[member]
        if upstream.draining:
            upstream.draining = False
            trace(self.engine, "traffic", "drain_end", member=member,
                  reason="explicit")

    # -- routing -------------------------------------------------------- #
    def _controller_routable(self, member: str) -> bool:
        state = self.controller.members[member].state
        return state in _ROUTABLE_STATES

    def _route(self, pinned: str | None) -> str:
        """The member for the next request: sticky while routable, else
        re-pinned round-robin over routable members (deterministic —
        upstream order is the sorted member list)."""
        if pinned is not None:
            upstream = self.upstreams[pinned]
            if upstream.routable and self._controller_routable(pinned):
                return pinned
        names = sorted(self.upstreams)
        candidates = [
            n for n in names
            if self.upstreams[n].routable and self._controller_routable(n)
        ] or [
            # Degraded fallback: prefer merely-unhealthy members over
            # draining/dead ones; never fail to route.
            n for n in names if not self.upstreams[n].dead
        ] or names
        self._rr_assign = (self._rr_assign + 1) % len(candidates)
        return candidates[self._rr_assign]

    # -- front side ----------------------------------------------------- #
    def _accept_loop(self, listener) -> Generator[Any, Any, None]:
        serial = 0
        while not self.stopped:
            try:
                conn = yield listener.accept()
            except Interrupt:  # ft: teardown -- proxy stop interrupts the accept loop
                return
            serial += 1
            self.engine.process(
                self._session(conn), name=f"proxy-session-{serial}"
            )

    def _session(self, sock) -> Generator[Any, Any, None]:
        """One keep-alive client session: relay framed requests upstream.

        Sessions have at most one request outstanding (the open-loop
        client is request/reply per session), so per-request re-routing
        can never reorder a session's replies."""
        pinned: str | None = None
        buffered = b""
        try:
            while not self.stopped:
                try:
                    chunk = yield sock.recv(1 << 16)
                except ConnectionReset:  # ft: defensive -- client reset tears down just this session
                    return
                if chunk == b"":
                    return  # client closed the session
                buffered += chunk
                while len(buffered) >= REQUEST_BYTES:
                    request = buffered[:REQUEST_BYTES]
                    buffered = buffered[REQUEST_BYTES:]
                    pinned = self._route(pinned)
                    upstream = self.upstreams[pinned]
                    self.counters.routed += 1
                    self.counters.per_member_routed[pinned] = (
                        self.counters.per_member_routed.get(pinned, 0) + 1
                    )
                    reply = yield upstream.pick_conn().submit(request)
                    sock.send(reply)
        except Interrupt:  # ft: teardown -- proxy stop interrupts the session loop
            return

    # -- health probing -------------------------------------------------- #
    def _probe_loop(self, upstream: _Upstream) -> Generator[Any, Any, None]:
        """Active health checks: a probe request through the regular
        upstream pool every interval; consecutive timeouts evict, the
        first reply readmits.  Probes are ordinary counter increments, so
        they exercise the full output-commit path — a member that cannot
        commit epochs is *unhealthy* even if its TCP stack still acks."""
        engine = self.engine
        try:
            while not self.stopped:  # ft: bounded -- exits when the proxy stops; every pass sleeps one probe interval
                yield engine.timeout(HEALTH_INTERVAL_US)
                if self.stopped or upstream.dead:
                    continue
                self._probe_serial += 1
                payload = f"HC{self._probe_serial:06d}".encode()[:REQUEST_BYTES]
                reply_ev = upstream.pick_conn().submit(payload)
                self.counters.routed += 1
                timeout_ev = engine.timeout(HEALTH_TIMEOUT_US)
                fired = yield engine.any_of([reply_ev, timeout_ev])
                if reply_ev in fired:
                    upstream.probe_misses = 0
                    upstream.readmit("probe_reply")
                    continue
                upstream.probe_misses += 1
                self.counters.probe_misses += 1
                trace(engine, "traffic", "probe_miss", member=upstream.member,
                      misses=upstream.probe_misses)
                if upstream.probe_misses >= PROBES_TO_EVICT:
                    upstream.evict("probe_timeout")
                # Wait for the stale probe to land (or the member to make
                # any progress) before probing again, so misses measure
                # distinct outage intervals, not one queue of backlog —
                # but bounded by one interval, so a fully silent member
                # still accumulates misses and gets evicted.
                if not reply_ev.triggered:
                    upstream._progress = engine.event()
                    fired = yield engine.any_of([
                        reply_ev, upstream._progress,
                        engine.timeout(HEALTH_INTERVAL_US),
                    ])
        except Interrupt:  # ft: teardown -- proxy stop interrupts the probe loop
            return

    # -- metrics --------------------------------------------------------- #
    def stall_histogram(self) -> LatencyHistogram:
        """All members' epoch-stall samples merged."""
        merged = LatencyHistogram()
        for name in sorted(self.upstreams):
            merged.merge(self.upstreams[name].stalls)
        return merged

    def inflight(self) -> int:
        return sum(u.inflight() for u in self.upstreams.values())

    def to_dict(self) -> dict[str, Any]:
        counters = self.counters
        return {
            "routed": counters.routed,
            "relayed": counters.relayed,
            "retries": counters.retries,
            "reconnects": counters.reconnects,
            "dropped": counters.dropped,
            "evictions": counters.evictions,
            "readmissions": counters.readmissions,
            "drains": counters.drains,
            "probe_misses": counters.probe_misses,
            "per_member_routed": dict(
                sorted(counters.per_member_routed.items())
            ),
            "stalls": self.stall_histogram().to_dict(),
        }
