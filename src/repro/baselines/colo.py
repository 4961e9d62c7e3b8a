"""COLO-style active replication (paper §VIII, Dong et al. 2013).

COLO runs a *full second replica* on the backup host: inputs to the
primary are forwarded to the backup, both execute, and their outputs are
compared.  Matching outputs are released immediately (far lower latency
than Remus-style buffering); a mismatch forces a state synchronization.
The costs the paper highlights, which this baseline demonstrates against
NiLiCon:

* **resource overhead over 100%** — the backup burns a full copy of the
  workload's CPU (contrast Table V's 0.07-0.40 backup cores);
* **non-determinism sensitivity** — every output divergence triggers an
  expensive synchronization; for largely non-deterministic workloads the
  overhead becomes prohibitive.

The implementation intercepts the primary container's veth: ingress
packets are delivered locally *and* forwarded over the pair channel into
the backup replica's TCP stack; egress packets are held in a per-flow
comparison queue until the backup produces an equivalent packet (same
flow, same payload).  Pure ACKs are released immediately, as in COLO.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.container.runtime import Container, ContainerRuntime
from repro.container.spec import ContainerSpec
from repro.kernel.netdev import Packet
from repro.metrics.collector import RunMetrics
from repro.net.world import World
from repro.sim.engine import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover
    pass

__all__ = ["ColoDeployment"]

#: An output left unmatched this long means the replicas diverged.
SYNC_TIMEOUT_US = 20_000

#: Flow key for output comparison.
FlowKey = tuple[str, int, int]


def _flow_key(pkt: Packet) -> FlowKey:
    return (pkt.dst_ip, pkt.dst_port, pkt.src_port)


def _comparable(pkt: Packet) -> tuple:
    """What must match between primary and backup outputs: flow, payload
    and stream-relevant flags.  Sequence numbers match too when execution
    is deterministic, but COLO compares content, not headers."""
    return (_flow_key(pkt), bytes(pkt.payload), "FIN" in pkt.flags)


class ColoDeployment:
    """Active replication of one container across the host pair."""

    def __init__(
        self,
        world: World,
        spec: ContainerSpec,
        attach_workload: Callable[[Container], None] | None = None,
    ) -> None:
        self.world = world
        self.spec = spec
        self.attach_workload = attach_workload
        self.metrics = RunMetrics()
        #: Output divergences that forced a state synchronization.
        self.syncs = 0
        self.outputs_compared = 0
        self.outputs_released = 0

        for _mountpoint, fs_name in spec.mounts:
            for host, tag in ((world.primary, "p"), (world.backup, "b")):
                if fs_name not in host.kernel.filesystems:
                    host.kernel.add_block_device(f"colo-{tag}-{fs_name}")
                    host.kernel.mkfs(f"colo-{tag}-{fs_name}", fs_name)

        # Primary replica: normal container on the client bridge.
        self.primary_runtime = ContainerRuntime(world.primary.kernel, world.bridge)
        self.container = self.primary_runtime.create(spec)
        self.container.start_keepalive()

        # Backup replica: identical container, but its veth is OFF the
        # bridge — it sees only forwarded inputs, and its outputs go to the
        # comparator, not the network.
        backup_spec = ContainerSpec(
            name=f"{spec.name}-replica",
            ip=spec.ip,
            processes=list(spec.processes),
            mounts=list(spec.mounts),
            cgroup_attributes=dict(spec.cgroup_attributes),
            n_cores=spec.n_cores,
        )
        self.backup_runtime = ContainerRuntime(world.backup.kernel, world.bridge)
        self.replica = self.backup_runtime.create(backup_spec)
        self.replica.veth.detach()
        self.replica.veth.egress_tap = self._on_backup_output
        # Creating the replica re-learned the shared IP at its (now
        # detached) port; point the bridge back at the live primary.
        primary_port = self.container.veth._port
        world.bridge.gratuitous_arp(spec.ip, primary_port)
        # The replica never talks to real clients, so its unacknowledged
        # data must not trigger retransmission storms into the comparator.
        from dataclasses import replace as _dc_replace

        self.replica.stack.costs = _dc_replace(
            world.costs, tcp_rto_default=3_600_000_000, tcp_rto_min=3_600_000_000
        )

        # Output comparator state: per-flow queues of pending packets.
        self._pending_primary: dict[FlowKey, deque[tuple[tuple, Packet, int]]] = {}
        self._pending_backup: dict[FlowKey, deque[tuple]] = {}

        # Intercept the primary's ingress: deliver locally + forward.
        self._primary_demux = self.container.stack.demux
        self.container.veth.on_ingress = self._on_primary_input
        # Intercept the primary's egress: hold for comparison.
        self.container.veth.egress_tap = self._on_primary_output

        self._endpoint = world.primary.endpoint("pair")
        self._backup_endpoint = world.backup.endpoint("pair")
        self._stopped = False
        self._processes: list[Process] = []

    # ------------------------------------------------------------------ #
    # Lifecycle                                                            #
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self.metrics.started_at_us = self.world.engine.now
        if self.attach_workload is not None:
            # The duplicate execution: the same service runs in the replica.
            self.attach_workload(self.replica)
        self._processes.append(
            self.world.engine.process(self._backup_input_loop(), name="colo-backup-input")
        )
        self._processes.append(
            self.world.engine.process(self._comparator_watchdog(), name="colo-watchdog")
        )

    def stop(self) -> None:
        if not self._stopped:
            # The duplicate execution is the backup's load: the replica's
            # CPU lands in the same counter every other mode reports.
            self.metrics.charge_backup_cpu(self.replica.cgroup.read_cpuacct())
        self._stopped = True
        self.metrics.ended_at_us = self.world.engine.now

    @property
    def failed_over(self) -> bool:
        return False

    # ------------------------------------------------------------------ #
    # Input path                                                           #
    # ------------------------------------------------------------------ #
    def _on_primary_input(self, pkt: Packet) -> None:
        self._primary_demux(pkt)
        # Forward a copy to the backup replica (input replication).
        self._endpoint.send({"kind": "colo_input", "pkt": pkt}, size_bytes=pkt.size)

    def _backup_input_loop(self) -> Generator[Any, Any, None]:
        while not self._stopped:
            try:
                delivery = yield self._backup_endpoint.recv()
            except Interrupt:
                return
            message = delivery.message
            if message.get("kind") != "colo_input":
                continue
            # Charge the forwarding/injection CPU on the backup.
            self.metrics.charge_backup_cpu(self.world.costs.tcp_segment_processing)
            self.replica.stack.demux(message["pkt"])

    # ------------------------------------------------------------------ #
    # Output comparison                                                    #
    # ------------------------------------------------------------------ #
    def _release(self, pkt: Packet) -> None:
        veth = self.container.veth
        if veth.bridge is not None and veth._port is not None:
            self.outputs_released += 1
            veth.bridge.forward(pkt, from_port=veth._port)

    def _on_primary_output(self, pkt: Packet) -> None:
        if not pkt.payload and "FIN" not in pkt.flags and "SYN" not in pkt.flags:
            # Pure ACK: no externally visible content; release immediately.
            self._release(pkt)
            return
        if "SYN" in pkt.flags:
            self._release(pkt)  # handshake packets are content-free
            return
        key = _flow_key(pkt)
        token = _comparable(pkt)
        backup_queue = self._pending_backup.get(key)
        if backup_queue and backup_queue[0] == token:
            backup_queue.popleft()
            self.outputs_compared += 1
            self._release(pkt)
        else:
            self._pending_primary.setdefault(key, deque()).append(
                (token, pkt, self.world.engine.now)
            )

    def _on_backup_output(self, pkt: Packet) -> None:
        # Comparing costs backup CPU too.
        self.metrics.charge_backup_cpu(self.world.costs.tcp_segment_processing)
        if not pkt.payload and "FIN" not in pkt.flags:
            return  # backup's pure ACKs are discarded
        if "SYN" in pkt.flags:
            return
        key = _flow_key(pkt)
        token = _comparable(pkt)
        primary_queue = self._pending_primary.get(key)
        if primary_queue and primary_queue[0][0] == token:
            _token, held, _since = primary_queue.popleft()
            self.outputs_compared += 1
            self._release(held)
        else:
            self._pending_backup.setdefault(key, deque()).append(token)

    # ------------------------------------------------------------------ #
    # Divergence handling                                                  #
    # ------------------------------------------------------------------ #
    def _comparator_watchdog(self) -> Generator[Any, Any, None]:
        """Outputs stuck unmatched beyond the timeout mean the replicas
        diverged: synchronize state (the expensive COLO fallback)."""
        while not self._stopped:
            yield self.world.engine.timeout(SYNC_TIMEOUT_US // 2)
            if self._stopped:
                return
            now = self.world.engine.now
            stuck = any(
                queue and now - queue[0][2] > SYNC_TIMEOUT_US
                for queue in self._pending_primary.values()
            )
            if stuck:
                yield from self._synchronize()

    def _synchronize(self) -> Generator[Any, Any, None]:
        """Force the replica back into lockstep: copy the primary's state.

        Modeled as a full-state copy (pause + transfer + apply), charged at
        both ends; held primary outputs are released (they are now, by
        construction, consistent with the replica's state).
        """
        self.syncs += 1
        costs = self.world.costs
        yield from self.container.freeze(poll=True)
        pages = sum(p.mm.resident_count for p in self.container.processes)
        yield self.world.engine.timeout(costs.page_copy_cost(pages))
        # Apply on the backup: memory + socket state.
        for src, dst in zip(self.container.processes, self.replica.processes):
            dst.mm.restore_pages(src.mm.full_snapshot())
        self.metrics.charge_backup_cpu(costs.page_copy_cost(pages))
        yield self.world.engine.timeout(costs.page_copy_cost(pages))
        yield from self.container.thaw()
        # Flush everything held: the replicas are identical again.
        for queue in self._pending_primary.values():
            while queue:
                _token, pkt, _since = queue.popleft()
                self._release(pkt)
        self._pending_backup.clear()
