"""A TCP implementation with sequence numbers, queues and repair mode.

Fidelity target: the connection-survival story of the paper.  NiLiCon
migrates *established* TCP connections by reading and writing socket state
through Linux's socket repair mode — sequence numbers, ack numbers, the
write queue (transmitted but not acknowledged) and the read queue (received
but not read by the process) (§II-B).  After failover the restored socket
retransmits unacknowledged data; NiLiCon's 2-line kernel patch drops the
retransmission timeout of repaired sockets from ≥1 s to the 200 ms minimum
(§V-E).

This module implements enough of TCP for those semantics to be *emergent*
rather than scripted:

* real sequence/ack arithmetic over byte streams,
* a write queue that holds segments until cumulatively acked,
* retransmission timers (default RTO vs repaired-socket minimum RTO),
* duplicate/overlap handling on receive (failover produces real duplicates),
* RST generation on demux miss — the failure mode that forces NiLiCon to
  block network input while restoring (§III),
* SYN retry after silent drops — the 1-3 s connect stalls caused by
  firewall-based input blocking (§V-C).

Windows and congestion control are intentionally omitted: buffers are
unbounded and the simulated links are fast relative to epoch timescales, so
neither affects any behaviour the paper measures.
"""

from __future__ import annotations

import enum
import itertools
import zlib
from typing import Any, Optional

from repro.kernel.costmodel import CostModel
from repro.kernel.errors import ConnectionReset, SocketError
from repro.kernel.netdev import NetDevice, Packet
from repro.sim.engine import Call, Engine, Event

__all__ = ["TcpSocket", "TcpStack", "TcpState", "MSS"]

#: Max segment payload bytes (1500 MTU minus headers).
MSS = 1448

# Flag sets, built once: every packet carries one of these.
_SYN = frozenset({"SYN"})
_SYN_ACK = frozenset({"SYN", "ACK"})
_ACK = frozenset({"ACK"})
_ACK_PSH = frozenset({"ACK", "PSH"})
_FIN_ACK = frozenset({"FIN", "ACK"})
_RST = frozenset({"RST"})

_initial_seq = itertools.count(10_000, 7_777)


def _server_iss(local_ip: str, local_port: int, remote_ip: str, remote_port: int) -> int:
    """Deterministic initial sequence number for accepted connections.

    Derived from the 4-tuple so that two replicas of the same server
    (active replication, COLO-style) produce byte-identical streams for
    the same client — and so runs are reproducible regardless of socket
    creation order.
    """
    seed = f"{local_ip}:{local_port}>{remote_ip}:{remote_port}".encode()
    return 20_000 + (zlib.crc32(seed) & 0x3FFF_FFFF)


class TcpState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn_sent"
    ESTABLISHED = "established"
    PEER_CLOSED = "peer_closed"  # we received FIN
    FIN_WAIT = "fin_wait"  # we sent FIN; still ACKing / receiving
    RESET = "reset"


class TcpSocket:
    """One TCP endpoint."""

    def __init__(self, stack: "TcpStack") -> None:
        self.stack = stack  # ckpt: derived -- backref; repaired sockets are created on the new stack
        self.state = TcpState.CLOSED
        self.local_ip: str = stack.ip
        self.local_port: int = 0
        self.remote_ip: str = ""
        self.remote_port: int = 0
        #: Next sequence number to assign to outgoing data.
        self.snd_nxt: int = 0
        #: Oldest unacknowledged sequence number.
        self.snd_una: int = 0
        #: Next expected incoming sequence number.
        self.rcv_nxt: int = 0
        #: Transmitted-but-unacked segments: (seq, payload).
        #: Lists, not deques: a socket's queues hold a few entries at most,
        #: and an empty list costs a tenth of an empty deque.
        self.write_queue: list[tuple[int, bytes]] = []
        #: Received-but-unread bytes.
        self.recv_buffer: bytearray = bytearray()
        self._recv_waiters: list[tuple[Event, int]] = []  # ckpt: ephemeral -- blocked readers die with the host
        #: (event, min_bytes) of each data_available() waiter.
        self._avail_waiters: list[tuple[Event, int]] = []  # ckpt: ephemeral
        #: Established-but-unaccepted children.  The sockets themselves are
        #: checkpointed via stack.connections; backlog membership is app
        #: state the restart-safe handlers re-derive by re-accepting every
        #: known connection after restore.
        self._accept_queue: list["TcpSocket"] = []  # ckpt: ephemeral
        self._accept_waiters: list[Event] = []  # ckpt: ephemeral
        self._connect_event: Event | None = None  # ckpt: ephemeral
        #: Socket repair mode (kernel get/set of protected state).
        self.repair = False  # ckpt: ephemeral -- toggled around the dump itself
        #: True if this socket was built via repair (affects RTO patch).
        self.restored_via_repair = False  # ckpt: derived -- set by the restore path itself
        #: Retransmission timeout.  A fresh socket starts at the ≥1 s
        #: default; once the connection sees acknowledgment progress the
        #: RTO collapses to the RTT-tracking minimum (200 ms on a LAN),
        #: mirroring Linux's adaptive RTO.  NiLiCon's §V-E patch applies
        #: the minimum immediately to repaired sockets, which otherwise
        #: restart at the fresh-socket default.
        self.rto: int = stack.costs.tcp_rto_default  # ckpt: derived -- re-derived by the §V-E rto patch on restore
        self._retx_timer: Call | None = None  # ckpt: ephemeral -- re-armed by kick_retransmit after restore
        self._retx_backoff = 1  # ckpt: ephemeral -- backoff restarts with the fresh timer
        self._syn_timer: Call | None = None  # ckpt: ephemeral
        self._syn_retries = 0  # ckpt: ephemeral
        #: Metrics: retransmitted segments.
        self.retransmits = 0  # ckpt: ephemeral -- host-local metric

    # ------------------------------------------------------------------ #
    # Identification                                                      #
    # ------------------------------------------------------------------ #
    @property
    def conn_key(self) -> tuple[str, int, str, int]:
        return (self.local_ip, self.local_port, self.remote_ip, self.remote_port)

    @property
    def unacked_bytes(self) -> int:
        return sum(len(p) for _s, p in self.write_queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpSocket {self.local_ip}:{self.local_port}->"
            f"{self.remote_ip}:{self.remote_port} {self.state.value}>"
        )

    # ------------------------------------------------------------------ #
    # Process-facing API                                                   #
    # ------------------------------------------------------------------ #
    def listen(self, port: int) -> None:
        if self.state is not TcpState.CLOSED:
            raise SocketError(f"listen() in state {self.state}")
        self.local_port = port
        self.state = TcpState.LISTEN
        self.stack.register_listener(self)

    def accept(self) -> Event:
        """Event resolving to an ESTABLISHED child socket."""
        if self.state is not TcpState.LISTEN:
            raise SocketError(f"accept() in state {self.state}")
        event = Event(self.stack.engine)
        if self._accept_queue:
            event.succeed(self._accept_queue.pop(0))
        else:
            self._accept_waiters.append(event)
        return event

    def connect(self, remote_ip: str, remote_port: int) -> Event:
        """Event resolving when the connection is established."""
        if self.state is not TcpState.CLOSED:
            raise SocketError(f"connect() in state {self.state}")
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.local_port = self.stack.ephemeral_port()
        self.snd_nxt = self.snd_una = next(_initial_seq)
        self.state = TcpState.SYN_SENT
        self.stack.register_connection(self)
        self._connect_event = Event(self.stack.engine)
        self._send_packet(_SYN, seq=self.snd_nxt)
        self._arm_syn_retry()
        return self._connect_event

    def send(self, data: bytes) -> int:
        """Queue and transmit *data*; returns bytes accepted (all of them)."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.PEER_CLOSED):
            raise SocketError(f"send() in state {self.state}")
        offset = 0
        while offset < len(data):
            payload = data[offset : offset + MSS]
            seq = self.snd_nxt
            self.snd_nxt += len(payload)
            self.write_queue.append((seq, payload))
            self._send_packet(_ACK_PSH, seq=seq, payload=payload)
            offset += len(payload)
        self._arm_retransmit()
        return len(data)

    def data_available(self, min_bytes: int = 1) -> Event:
        """Event triggering when ≥ *min_bytes* are readable (or the stream
        ended).  Unlike :meth:`recv` it consumes nothing — the restart-safe
        handler pattern peeks, then consumes and processes atomically inside
        a run_slice so a checkpoint can never land between a byte being
        consumed from kernel state and its effect being applied."""
        event = Event(self.stack.engine)
        if len(self.recv_buffer) >= min_bytes or self.state in (
            TcpState.PEER_CLOSED,
            TcpState.RESET,
        ):
            event.succeed(None)
        else:
            self._avail_waiters.append((event, min_bytes))
        return event

    def peek(self, max_bytes: int) -> bytes:
        """Read without consuming."""
        return bytes(self.recv_buffer[:max_bytes])

    @property
    def available(self) -> int:
        return len(self.recv_buffer)

    def recv_nowait(self, max_bytes: int) -> bytes:
        """Consume up to *max_bytes* synchronously (may return b'')."""
        take = bytes(self.recv_buffer[:max_bytes])
        del self.recv_buffer[:max_bytes]
        return take

    def recv(self, max_bytes: int) -> Event:
        """Event resolving to up to *max_bytes* of stream data.

        Resolves to ``b""`` at end-of-stream (peer closed, buffer drained);
        fails with :class:`ConnectionReset` if the connection was reset.
        """
        event = Event(self.stack.engine)
        if self.state is TcpState.RESET:
            event.fail(ConnectionReset(f"{self!r} was reset"))
            event.defuse()
            return event
        if self.recv_buffer:
            take = bytes(self.recv_buffer[:max_bytes])
            del self.recv_buffer[:max_bytes]
            event.succeed(take)
        elif self.state is TcpState.PEER_CLOSED:
            event.succeed(b"")
        else:
            self._recv_waiters.append((event, max_bytes))
        return event

    def close(self) -> None:
        """Half-close: send FIN but keep the socket registered so late ACKs
        and the peer's FIN are processed instead of triggering RSTs.
        """
        if self.state is TcpState.LISTEN:
            self.stack.unregister_listener(self)
            self.state = TcpState.CLOSED
            return
        if self.state in (TcpState.ESTABLISHED, TcpState.PEER_CLOSED):
            self._send_packet(_FIN_ACK, seq=self.snd_nxt)
            self.snd_nxt += 1  # FIN consumes a sequence number
            self.state = TcpState.FIN_WAIT
        else:
            self._cancel_timers()
            self.state = TcpState.CLOSED

    def abort(self) -> None:
        """Hard teardown: deregister and cancel timers (no FIN exchange)."""
        self._cancel_timers()
        if self.state is TcpState.LISTEN:
            self.stack.unregister_listener(self)
        elif self.remote_port:
            self.stack.unregister_connection(self)
        self.state = TcpState.CLOSED

    def _cancel_timers(self) -> None:
        if self._retx_timer is not None:
            self._retx_timer.cancel()
            self._retx_timer = None
        if self._syn_timer is not None:
            self._syn_timer.cancel()
            self._syn_timer = None

    # ------------------------------------------------------------------ #
    # Packet processing (kernel side)                                      #
    # ------------------------------------------------------------------ #
    def on_packet(self, pkt: Packet) -> None:
        if "RST" in pkt.flags:
            self._reset()
            return

        if self.state is TcpState.LISTEN:
            if "SYN" in pkt.flags and "ACK" not in pkt.flags:
                self._handle_syn(pkt)
            return

        if self.state is TcpState.SYN_SENT:
            if pkt.flags >= _SYN_ACK:
                self.rcv_nxt = pkt.seq + 1
                self.snd_nxt += 1  # our SYN consumed one sequence number
                self.snd_una = self.snd_nxt
                self.state = TcpState.ESTABLISHED
                if self._syn_timer is not None:
                    self._syn_timer.cancel()
                    self._syn_timer = None
                self._send_packet(_ACK)
                if self._connect_event is not None and not self._connect_event.triggered:
                    self._connect_event.succeed(self)
            return

        # ESTABLISHED / PEER_CLOSED / FIN_WAIT ------------------------------
        if "ACK" in pkt.flags:
            self._handle_ack(pkt.ack)
        if pkt.payload:
            self._handle_data(pkt)
        if "FIN" in pkt.flags:
            self.rcv_nxt = max(self.rcv_nxt, pkt.seq + len(pkt.payload) + 1)
            if self.state is TcpState.ESTABLISHED:
                self.state = TcpState.PEER_CLOSED
            self._send_packet(_ACK)
            # Wake readers blocked on an empty buffer: end-of-stream.
            while self._recv_waiters and not self.recv_buffer:
                event, _max = self._recv_waiters.pop(0)
                event.succeed(b"")
            self._wake_avail()

    def _handle_syn(self, pkt: Packet) -> None:
        child = TcpSocket(self.stack)
        child.local_ip = self.local_ip
        child.local_port = self.local_port
        child.remote_ip = pkt.src_ip
        child.remote_port = pkt.src_port
        child.rcv_nxt = pkt.seq + 1
        child.snd_nxt = child.snd_una = _server_iss(
            child.local_ip, child.local_port, child.remote_ip, child.remote_port
        )
        child.state = TcpState.ESTABLISHED
        self.stack.register_connection(child)
        child._send_packet(_SYN_ACK, seq=child.snd_nxt)
        child.snd_nxt += 1
        child.snd_una = child.snd_nxt
        if self._accept_waiters:
            self._accept_waiters.pop(0).succeed(child)
        else:
            self._accept_queue.append(child)

    def _handle_ack(self, ack: int) -> None:
        if ack <= self.snd_una:
            return
        self.snd_una = ack
        # Acknowledgment progress: the RTT estimator converges, dropping
        # the RTO to its minimum, and any retransmit backoff resets.
        self.rto = min(self.rto, self.stack.costs.tcp_rto_min)
        self._retx_backoff = 1
        queue = self.write_queue
        acked = 0
        for seq, payload in queue:
            if seq + len(payload) > ack:
                break
            acked += 1
        del queue[:acked]
        # Partial ack of the head segment: trim it.
        if queue and queue[0][0] < ack:
            seq, payload = queue[0]
            queue[0] = (ack, payload[ack - seq :])
        if not queue and self._retx_timer is not None:
            self._retx_timer.cancel()
            self._retx_timer = None

    def _handle_data(self, pkt: Packet) -> None:
        seq, payload = pkt.seq, pkt.payload
        end = seq + len(payload)
        if end <= self.rcv_nxt:
            # Pure duplicate (failover retransmission): re-ack.
            self._send_packet(_ACK)
            return
        if seq > self.rcv_nxt:
            # Out-of-order: drop; sender's retransmit recovers. Re-ack so the
            # sender learns our position quickly.
            self._send_packet(_ACK)
            return
        fresh = payload[self.rcv_nxt - seq :]
        self.rcv_nxt = end
        self.recv_buffer += fresh
        self._send_packet(_ACK)
        while self._recv_waiters and self.recv_buffer:
            event, max_bytes = self._recv_waiters.pop(0)
            take = bytes(self.recv_buffer[:max_bytes])
            del self.recv_buffer[:max_bytes]
            event.succeed(take)
        self._wake_avail()

    def _wake_avail(self) -> None:
        waiters = self._avail_waiters
        if not waiters:
            return
        ended = self.state in (TcpState.PEER_CLOSED, TcpState.RESET)
        still_waiting: list[tuple[Event, int]] = []
        for event, min_bytes in waiters:
            if ended or len(self.recv_buffer) >= min_bytes:
                event.succeed(None)
            else:
                still_waiting.append((event, min_bytes))
        self._avail_waiters = still_waiting

    def _reset(self) -> None:
        self.state = TcpState.RESET
        self._cancel_timers()
        self.stack.unregister_connection(self)
        while self._recv_waiters:
            event, _max = self._recv_waiters.pop(0)
            event.fail(ConnectionReset(f"{self!r} reset by peer"))
        self._wake_avail()
        if self._connect_event is not None and not self._connect_event.triggered:
            self._connect_event.fail(ConnectionReset("connection refused (RST)"))

    # ------------------------------------------------------------------ #
    # Transmission & retransmission                                        #
    # ------------------------------------------------------------------ #
    def _send_packet(
        self, flags: frozenset[str], seq: int | None = None, payload: bytes = b""
    ) -> None:
        pkt = Packet(
            src_ip=self.local_ip,
            src_port=self.local_port,
            dst_ip=self.remote_ip,
            dst_port=self.remote_port,
            flags=flags,
            seq=self.snd_nxt if seq is None else seq,
            ack=self.rcv_nxt,
            payload=payload,
        )
        self.stack.transmit(pkt)

    def _arm_retransmit(self) -> None:
        if self._retx_timer is not None or not self.write_queue:
            return
        snapshot_una = self.snd_una
        self._retx_timer = self.stack.engine.call_later(
            self.rto * self._retx_backoff, self._retransmit_check, snapshot_una
        )

    def _retransmit_check(self, una_when_armed: int) -> None:
        self._retx_timer = None
        if self.state not in (TcpState.ESTABLISHED, TcpState.PEER_CLOSED, TcpState.FIN_WAIT):
            return
        if not self.write_queue:
            return
        if self.snd_una > una_when_armed:
            # Progress since arming: just re-arm for the remainder.
            self._arm_retransmit()
            return
        for seq, payload in list(self.write_queue):
            self.retransmits += 1
            self._send_packet(_ACK_PSH, seq=seq, payload=payload)
        # Exponential backoff until an ack shows progress.
        self._retx_backoff = min(self._retx_backoff * 2, 16)
        self._arm_retransmit()

    def _arm_syn_retry(self) -> None:
        self._syn_timer = self.stack.engine.call_later(
            self.stack.costs.syn_retry_timeout, self._syn_retry
        )

    def _syn_retry(self) -> None:
        self._syn_timer = None
        if self.state is not TcpState.SYN_SENT:
            return
        self._syn_retries += 1
        if self._syn_retries > 5:
            if self._connect_event is not None and not self._connect_event.triggered:
                self._connect_event.fail(ConnectionReset("connect timed out"))
            return
        self._send_packet(_SYN, seq=self.snd_una)
        self._arm_syn_retry()

    # ------------------------------------------------------------------ #
    # Repair mode (paper SSII-B, SSV-E)                                    #
    # ------------------------------------------------------------------ #
    def enter_repair(self) -> None:
        if self.state not in (TcpState.ESTABLISHED, TcpState.PEER_CLOSED):
            raise SocketError(f"repair mode requires an established socket, not {self.state}")
        self.repair = True

    def leave_repair(self) -> None:
        self.repair = False

    def get_repair_state(self) -> dict[str, Any]:
        """Read protected state (requires repair mode)."""
        if not self.repair:
            raise SocketError("get_repair_state outside repair mode")
        return {
            "local_ip": self.local_ip,
            "local_port": self.local_port,
            "remote_ip": self.remote_ip,
            "remote_port": self.remote_port,
            "state": self.state.value,
            "snd_nxt": self.snd_nxt,
            "snd_una": self.snd_una,
            "rcv_nxt": self.rcv_nxt,
            "write_queue": [(seq, bytes(payload)) for seq, payload in self.write_queue],
            "recv_buffer": bytes(self.recv_buffer),
        }

    def set_repair_state(self, state: dict[str, Any], rto_patch: bool = True) -> None:
        """Rebuild socket state from a checkpoint (requires repair mode).

        With *rto_patch* (NiLiCon's kernel change), the retransmission
        timeout is set to the 200 ms minimum instead of the ≥1 s default of
        a fresh socket — cutting recovery latency (§V-E).
        """
        if not self.repair:
            raise SocketError("set_repair_state outside repair mode")
        self.local_ip = state["local_ip"]
        self.local_port = state["local_port"]
        self.remote_ip = state["remote_ip"]
        self.remote_port = state["remote_port"]
        self.state = TcpState(state["state"])
        self.snd_nxt = state["snd_nxt"]
        self.snd_una = state["snd_una"]
        self.rcv_nxt = state["rcv_nxt"]
        self.write_queue = [(seq, payload) for seq, payload in state["write_queue"]]
        self.recv_buffer = bytearray(state["recv_buffer"])
        self.restored_via_repair = True
        self.rto = self.stack.costs.tcp_rto_min if rto_patch else self.stack.costs.tcp_rto_default
        self.stack.register_connection(self)

    def kick_retransmit(self) -> None:
        """Arm the retransmission timer after restore.

        The restored socket retransmits its write queue after one RTO — the
        "TCP" component of Table II's recovery latency.
        """
        if self.write_queue:
            # Force a retransmission pass: pretend no progress since arming.
            self._arm_retransmit()


class TcpStack:
    """Per-network-namespace TCP state: listeners, connections, demux."""

    def __init__(self, engine: Engine, costs: CostModel, ip: str, name: str = "tcp") -> None:
        self.engine = engine  # ckpt: derived -- host infrastructure handle
        self.costs = costs  # ckpt: derived -- host infrastructure handle
        self.ip = ip  # ckpt: derived -- fixed by the ContainerSpec
        self.name = name  # ckpt: derived -- fixed by the ContainerSpec
        self.device: Optional[NetDevice] = None  # ckpt: derived -- veth rebuilt and reattached at restore
        self.listeners: dict[int, TcpSocket] = {}
        self.connections: dict[tuple[str, int, str, int], TcpSocket] = {}
        #: Ephemeral-port allocator position; checkpointed as stack-wide
        #: state so post-failover connects cannot collide with repaired
        #: connections.
        self._next_ephemeral = 40_000
        #: RSTs we generated on demux miss (§III failure mode).
        self.rsts_sent = 0  # ckpt: ephemeral -- host-local metric
        #: Input packets processed while the owning container was frozen but
        #: input was NOT blocked — the consistency hazard NiLiCon closes.
        self.unblocked_input_during_freeze = 0  # ckpt: ephemeral -- host-local hazard metric
        #: Set by the freezer; checked on ingress for hazard accounting.
        self.frozen = False  # ckpt: derived -- freezer phase flag

    def attach_device(self, device: NetDevice) -> None:
        self.device = device
        device.on_ingress = self.demux

    # -- socket factory -----------------------------------------------------
    def socket(self) -> TcpSocket:
        return TcpSocket(self)

    def ephemeral_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    # -- registration ---------------------------------------------------------
    def register_listener(self, sock: TcpSocket) -> None:
        if sock.local_port in self.listeners:
            raise SocketError(f"{self.name}: port {sock.local_port} already listening")
        self.listeners[sock.local_port] = sock

    def unregister_listener(self, sock: TcpSocket) -> None:
        self.listeners.pop(sock.local_port, None)

    def register_connection(self, sock: TcpSocket) -> None:
        self.connections[sock.conn_key] = sock

    def unregister_connection(self, sock: TcpSocket) -> None:
        self.connections.pop(sock.conn_key, None)

    @property
    def socket_count(self) -> int:
        """Sockets CRIU must checkpoint (listeners + established)."""
        return len(self.listeners) + len(self.connections)

    # -- data plane -------------------------------------------------------------
    def transmit(self, pkt: Packet) -> None:
        if self.device is not None:
            self.device.send(pkt)

    def demux(self, pkt: Packet) -> None:
        if self.frozen:
            self.unblocked_input_during_freeze += 1
        key = (pkt.dst_ip, pkt.dst_port, pkt.src_ip, pkt.src_port)
        sock = self.connections.get(key)
        if sock is not None:
            sock.on_packet(pkt)
            return
        listener = self.listeners.get(pkt.dst_port)
        if listener is not None and "SYN" in pkt.flags and "ACK" not in pkt.flags:
            listener.on_packet(pkt)
            return
        if "RST" in pkt.flags:
            return  # never answer RST with RST
        # Demux miss: the kernel sends RST (the §III recovery hazard).
        self.rsts_sent += 1
        rst = Packet(
            src_ip=pkt.dst_ip,
            src_port=pkt.dst_port,
            dst_ip=pkt.src_ip,
            dst_port=pkt.src_port,
            flags=_RST,
            seq=pkt.ack,
            ack=pkt.seq + len(pkt.payload),
        )
        self.transmit(rst)
