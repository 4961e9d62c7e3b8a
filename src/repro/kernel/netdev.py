"""Network devices, the plug qdisc, and a learning bridge.

Three pieces of the paper's data plane live here:

* :class:`PlugQdisc` — the ``sch_plug`` kernel module used by Remus and
  NiLiCon to buffer outgoing packets during an epoch and release them after
  the backup acknowledges the checkpoint (§II-A), and reused by NiLiCon to
  *block network input* during checkpointing instead of firewall rules
  (§V-C).  A closed plug queues packets; opening releases them in order.
* :class:`NetDevice` — a container veth / host NIC with an egress plug, an
  ingress plug, and an iptables-style drop switch (the unoptimized input
  blocking path, which *drops* rather than buffers — causing the 3 s TCP
  connect stalls the paper describes).
* :class:`Bridge` — the virtual bridge connecting container namespaces and
  hosts.  Forwarding is IP-keyed and learned via (gratuitous) ARP, which is
  how failover moves the container's address to the backup host's port
  (§IV: "the backup agent reconnects the container network namespace to the
  bridge").

Packet *transport* timing (latency + bandwidth serialization per egress
port) is charged here; packet *processing* costs are charged by the TCP
stack's callers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.engine import Engine
from repro.sim.units import SECOND

__all__ = ["Bridge", "NetDevice", "Packet", "PlugQdisc"]

#: Ethernet + IP + TCP header bytes added to every segment for sizing.
HEADER_BYTES = 66


@dataclass(slots=True, eq=False)
class Packet:
    """A TCP/IP packet.  ``flags`` is a set of {SYN, ACK, FIN, RST, PSH}.

    Slotted, and compared by identity: two packets with the same headers
    and payload are still two packets.
    """

    #: In-flight wire data, not container state: packets buffered at freeze
    #: are either released by output commit or legitimately lost (TCP
    #: retransmission recovers them); CRIU never dumps skbs.
    __ckpt_ignore__ = True

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    flags: frozenset[str] = frozenset()
    seq: int = 0
    ack: int = 0
    payload: bytes = b""

    @property
    def size(self) -> int:
        return HEADER_BYTES + len(self.payload)

    def describe(self) -> str:
        flags = ",".join(sorted(self.flags)) or "-"
        return (
            f"{self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port} "
            f"[{flags}] seq={self.seq} ack={self.ack} len={len(self.payload)}"
        )


class _Barrier:
    """Epoch boundary marker inside a plug queue."""

    #: Host-side output-commit bookkeeping; dies with the host at failover.
    __ckpt_ignore__ = True

    __slots__ = ("epoch",)

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Barrier epoch={self.epoch}>"


class PlugQdisc:
    """An ``sch_plug``-style packet buffer with Remus epoch barriers.

    While *plugged*, packets queue.  Remus/NiLiCon keep the *egress* plug
    permanently closed and insert a barrier at each checkpoint: packets
    buffered during epoch *k* sit before barrier *k*.  When the backup
    acknowledges epoch *k*'s state, :meth:`release_through` drains packets
    up to (and including) barrier *k* — and no further, so epoch *k+1* output
    never escapes before its own state is safe.  :meth:`unplug` fully opens
    the plug (used for the simple input-blocking case).
    """

    #: Host-side output-commit machinery (sch_plug): the backup builds its
    #: own fresh plug; uncommitted buffered output is deliberately dropped.
    __ckpt_ignore__ = True

    def __init__(self, name: str, deliver: Callable[[Packet], None]) -> None:
        self.name = name
        self._deliver = deliver
        self._plugged = False
        self._queue: deque[Packet | _Barrier] = deque()
        #: Lifetime counters for metrics/invariant audits.
        self.buffered_total = 0
        self.released_total = 0

    @property
    def plugged(self) -> bool:
        return self._plugged

    @property
    def queued(self) -> int:
        return sum(1 for item in self._queue if not isinstance(item, _Barrier))

    def plug(self) -> None:
        self._plugged = True

    def unplug(self) -> None:
        """Fully open the plug and release everything queued, in order."""
        self._plugged = False
        while self._queue and not self._plugged:
            item = self._queue.popleft()
            if isinstance(item, _Barrier):
                continue
            self.released_total += 1
            self._deliver(item)

    def insert_barrier(self, epoch: int) -> None:
        """Mark the end of epoch *epoch*'s buffered output."""
        self._queue.append(_Barrier(epoch))

    def barrier_epochs(self) -> tuple[int, ...]:
        """Epochs of the barriers still queued, oldest first."""
        return tuple(item.epoch for item in self._queue if isinstance(item, _Barrier))

    def release_oldest(self) -> tuple[int | None, int]:
        """Drain packets up to the oldest barrier, whatever its epoch.

        Returns ``(barrier_epoch, packets)``; ``(None, 0)`` when no barrier
        is queued.  This is the pop-regardless-of-epoch semantics; the
        epoch-addressed :meth:`release_through` is what output commit
        actually requires (a duplicated or reordered ack must not pop a
        *later* epoch's barrier).
        """
        barrier_at, barrier_epoch = self._oldest_barrier()
        if barrier_at is None:
            return None, 0
        return barrier_epoch, self._release_to_barrier(barrier_at)

    def release_through(self, epoch: int) -> list[tuple[int, int]]:
        """Drain every leading segment whose barrier epoch is <= *epoch*.

        Returns ``[(barrier_epoch, packets), ...]`` per barrier drained,
        oldest first.  Idempotent: barriers with epochs beyond *epoch* (and
        the packets fenced behind them) stay queued, so replaying an old
        acknowledgment releases nothing.
        """
        out: list[tuple[int, int]] = []
        while True:
            barrier_at, barrier_epoch = self._oldest_barrier()
            if barrier_at is None or barrier_epoch > epoch:
                return out
            out.append((barrier_epoch, self._release_to_barrier(barrier_at)))

    def _oldest_barrier(self) -> tuple[int, int] | tuple[None, None]:
        """``(index, epoch)`` of the oldest queued barrier, found in one
        pass; ``(None, None)`` when no barrier is queued."""
        for i, item in enumerate(self._queue):
            if isinstance(item, _Barrier):
                return i, item.epoch
        return None, None

    def _release_to_barrier(self, barrier_at: int) -> int:
        """Deliver the *barrier_at* packets ahead of the oldest barrier and
        drop the barrier itself; returns the packets delivered."""
        for _ in range(barrier_at):
            packet = self._queue.popleft()
            self.released_total += 1
            self._deliver(packet)
        self._queue.popleft()  # the barrier itself
        return barrier_at

    def enqueue(self, packet: Packet) -> None:
        """Packet arrives at the qdisc: pass through or buffer."""
        if self._plugged:
            self._queue.append(packet)
            self.buffered_total += 1
        else:
            self._deliver(packet)

    def drop_all(self) -> list[Packet]:
        """Discard buffered packets (failover: uncommitted output dies)."""
        dropped = [item for item in self._queue if not isinstance(item, _Barrier)]
        self._queue.clear()
        return dropped


class NetDevice:
    """A network interface: veth end of a container, or a host NIC."""

    #: Recreated by the runtime on the backup (fresh veth, same ip/mac from
    #: the spec); attachment/plug/firewall state is host-side and rebuilt by
    #: the restore protocol, not round-tripped through images.
    __ckpt_ignore__ = True

    def __init__(
        self,
        name: str,
        ip: str,
        mac: str,
        engine: Engine,
        on_ingress: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        self.name = name
        self.ip = ip
        self.mac = mac
        self.engine = engine
        #: Where delivered (post-plug) ingress packets go — the TCP stack
        #: demux.  Set by the owning namespace.
        self.on_ingress = on_ingress
        self.bridge: Bridge | None = None
        self._port: int | None = None
        #: Egress tap: when set, post-plug egress packets are handed to this
        #: callback instead of the bridge (used by COLO-style output
        #: interception and by packet-capture tooling).
        self.egress_tap: Optional[Callable[[Packet], None]] = None
        #: iptables-style ingress drop (the unoptimized blocking path).
        self.firewall_drop_input = False
        #: Fail-stop: the device neither sends nor receives.
        self.cable_cut = False
        self.egress_plug = PlugQdisc(f"{name}-egress", self._egress_transmit)
        self.ingress_plug = PlugQdisc(f"{name}-ingress", self._ingress_deliver)
        #: Metrics.
        self.tx_packets = 0
        self.rx_packets = 0
        self.dropped_by_firewall = 0

    # -- egress ---------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Entry point from the TCP stack: egress via the plug qdisc."""
        if self.cable_cut:
            return
        self.egress_plug.enqueue(packet)

    def _egress_transmit(self, packet: Packet) -> None:
        if self.cable_cut:
            return
        if self.egress_tap is not None:
            self.tx_packets += 1
            self.egress_tap(packet)
            return
        if self.bridge is None or self._port is None:
            return
        self.tx_packets += 1
        self.bridge.forward(packet, from_port=self._port)

    # -- ingress --------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Called by the bridge when a packet arrives at this port."""
        if self.cable_cut:
            return
        if self.firewall_drop_input:
            self.dropped_by_firewall += 1
            return
        self.ingress_plug.enqueue(packet)

    def _ingress_deliver(self, packet: Packet) -> None:
        self.rx_packets += 1
        if self.on_ingress is not None:
            self.on_ingress(packet)

    # -- failover helpers --------------------------------------------------------
    def detach(self) -> None:
        """Disconnect from the bridge (blocks input during recovery, §III)."""
        if self.bridge is not None and self._port is not None:
            self.bridge.detach_port(self._port)
            self._port = None
            self.bridge = None


class Bridge:
    """A learning virtual bridge with per-port bandwidth serialization.

    Forwarding is by destination IP through an ARP-learned table.  Each
    egress port models a serial link: a packet's delivery time is
    ``max(now, port_free) + tx_time + latency``.
    """

    #: Physical-network infrastructure shared by both hosts; survives the
    #: primary's failure, never checkpointed.
    __ckpt_ignore__ = True

    def __init__(
        self,
        engine: Engine,
        name: str = "br0",
        bandwidth_bps: int = 1_000_000_000,
        latency_us: int = 100,
    ) -> None:
        self.engine = engine
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.latency_us = latency_us
        self._ports: dict[int, NetDevice] = {}
        self._next_port = 0
        #: ARP/forwarding table: ip -> port.
        self._arp: dict[str, int] = {}
        self._port_free_at: dict[int, int] = {}
        #: Packets dropped because the destination was unknown or detached.
        self.dropped = 0

    def attach(self, device: NetDevice) -> int:
        port = self._next_port
        self._next_port += 1
        self._ports[port] = device
        device.bridge = self
        device._port = port
        self._arp[device.ip] = port
        self._port_free_at[port] = 0
        return port

    def detach_port(self, port: int) -> None:
        device = self._ports.pop(port, None)
        if device is None:
            return
        # Forwarding entries pointing here go stale (packets drop) until a
        # gratuitous ARP re-learns the address elsewhere.
        self._port_free_at.pop(port, None)

    def gratuitous_arp(self, ip: str, port: int) -> None:
        """Re-learn *ip* at *port* (failover address takeover)."""
        if port not in self._ports:
            raise ValueError(f"{self.name}: gratuitous ARP from unknown port {port}")
        self._arp[ip] = port

    def arp_lookup(self, ip: str) -> int | None:
        return self._arp.get(ip)

    def tx_time_us(self, size_bytes: int) -> int:
        return (size_bytes * 8 * SECOND) // self.bandwidth_bps

    def forward(self, packet: Packet, from_port: int) -> None:
        port = self._arp.get(packet.dst_ip)
        if port is None or port not in self._ports:
            self.dropped += 1
            return
        device = self._ports[port]
        now = self.engine.now
        start = max(now, self._port_free_at.get(port, 0))
        done = start + self.tx_time_us(packet.size)
        self._port_free_at[port] = done
        arrival = done + self.latency_us

        self.engine.call_later(arrival - now, device.receive, packet)
