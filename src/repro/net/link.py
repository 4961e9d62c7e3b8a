"""Reliable point-to-point message channels between hosts.

Used for agent-to-agent traffic: checkpoint state transfer, DRBD mirroring,
heartbeats, acknowledgments.  Delivery is FIFO per direction with bandwidth
serialization and fixed latency.  ``cut()`` models fail-stop silence: pending
and future messages are dropped (a crashed host sends nothing).

Messages can be delivered in *chunks* to model streaming: the receiver sees
``(message, chunk_count)`` and the backup agent charges per-chunk read cost,
which is what makes Node's fine-grained socket state more expensive for the
backup CPU than Redis's bulk pages (paper Table V discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.sim.engine import Engine
from repro.sim.faults import link_fault
from repro.sim.resources import Queue
from repro.sim.units import SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

__all__ = ["Channel", "Endpoint", "Delivery"]


@dataclass
class Delivery:
    """What an endpoint's receive queue yields."""

    #: Replication-link wire data, not container state.
    __ckpt_ignore__ = True

    message: Any
    size_bytes: int
    #: Number of chunks the payload arrived in (receiver read() granularity).
    chunks: int
    sent_at: int


class Endpoint:
    """One end of a channel."""

    #: Dedicated replication-link plumbing between the hosts.
    __ckpt_ignore__ = True

    def __init__(self, channel: "Channel", index: int, name: str) -> None:
        self._channel = channel
        self._index = index
        self.name = name
        self.rx = Queue(channel.engine, name=f"{name}-rx")

    def send(self, message: Any, size_bytes: int = 256, chunks: int = 1) -> None:
        """Transmit *message* to the peer (non-blocking; FIFO; reliable
        unless the channel is cut)."""
        self._channel._transmit(self._index, message, size_bytes, chunks)

    def recv(self):
        """Event resolving to the next :class:`Delivery`."""
        return self.rx.get()

    @property
    def peer(self) -> "Endpoint":
        return self._channel.ends[1 - self._index]


#: Every dedicated replication link between two hosts (§VI: 10 GbE).
PAIR_BANDWIDTH_BPS = 10_000_000_000
PAIR_LATENCY_US = 50


class Channel:
    """A bidirectional reliable link (the dedicated 10 GbE pair link)."""

    #: Dedicated replication-link plumbing between the hosts.
    __ckpt_ignore__ = True

    def __init__(
        self,
        engine: Engine,
        name: str = "chan",
        bandwidth_bps: int = PAIR_BANDWIDTH_BPS,
        latency_us: int = PAIR_LATENCY_US,
    ) -> None:
        self.engine = engine
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.latency_us = latency_us
        self.ends = (Endpoint(self, 0, f"{name}.a"), Endpoint(self, 1, f"{name}.b"))
        self._cut = False
        #: Per-direction serialization: time the link is next free.
        self._free_at = [0, 0]
        #: Metrics.
        self.bytes_sent = 0
        self.messages_sent = 0

    @property
    def a(self) -> Endpoint:
        return self.ends[0]

    @property
    def b(self) -> Endpoint:
        return self.ends[1]

    def ends_for(self, near: "Host", far: "Host") -> tuple[Endpoint, Endpoint]:
        """``(near_end, far_end)``: the ends terminating at *near* and *far*.

        A pooled channel may have been provisioned in either direction
        (host A's end is ``.a`` for one pair and ``.b`` for another), so
        orient by which end each host holds; two transfers in opposite
        directions then contend on opposite link directions, as they
        physically would.
        """
        if any(ep is self.b for ep in near.endpoints.values()) or any(
            ep is self.a for ep in far.endpoints.values()
        ):
            return self.b, self.a
        return self.a, self.b

    def cut(self) -> None:
        """Fail-stop: silence the channel in both directions."""
        self._cut = True

    def restore(self) -> None:
        self._cut = False

    @property
    def is_cut(self) -> bool:
        return self._cut

    def tx_time_us(self, size_bytes: int) -> int:
        return (size_bytes * 8 * SECOND) // self.bandwidth_bps

    def deliver(self, dest: Endpoint, delivery: Delivery) -> None:
        """Hand *delivery* to *dest* unless the channel was cut in flight."""
        if not self._cut:
            dest.rx.put(delivery)

    def _transmit(self, from_index: int, message: Any, size_bytes: int, chunks: int) -> None:
        if self._cut:
            return
        now = self.engine.now
        start = max(now, self._free_at[from_index])
        done = start + self.tx_time_us(size_bytes)
        self._free_at[from_index] = done
        arrival = done + self.latency_us
        self.bytes_sent += size_bytes
        self.messages_sent += 1
        dest = self.ends[1 - from_index]
        delivery = Delivery(message=message, size_bytes=size_bytes, chunks=chunks, sent_at=now)

        # An armed fault plan may drop, duplicate, delay or hold this
        # delivery (zero-cost getattr when no plan is armed).
        if link_fault(self.engine, self, dest, delivery, arrival - now):
            return

        self.engine.call_later(arrival - now, self.deliver, dest, delivery)
