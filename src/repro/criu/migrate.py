"""Live container migration — CRIU's original use case (paper §II-B).

NiLiCon repurposes CRIU's checkpoint/restore for high-frequency
replication; this module implements the tool's *native* job: moving a
running container between hosts with minimal downtime, using iterative
pre-copy exactly like VM live migration:

1. **Pre-copy rounds** — with the container running, snapshot the pages
   dirtied since the previous round (round 0 ships everything) and stream
   them to the destination.  Soft-dirty tracking provides the delta.
2. **Stop-and-copy** — when the dirty set stops shrinking (or a round
   budget is exhausted), freeze the container, take the final incremental
   checkpoint *including all in-kernel state* (sockets via repair mode,
   namespaces, fs cache), transfer it, restore on the destination, move
   the IP with a gratuitous ARP, and destroy the source.

Downtime is the freeze-to-restored interval; established TCP connections
survive through repair mode, just as in failover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.criu.checkpoint import CheckpointEngine
from repro.criu.config import CriuConfig
from repro.criu.images import CheckpointImage
from repro.criu.restore import FullState, RestoreEngine
from repro.kernel.costmodel import PAGE_SIZE
from repro.net.link import Endpoint
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container, ContainerRuntime

__all__ = ["LiveMigration", "MigrationStats"]

#: Pre-copy round budget, and the dirty-set size (pages) at which pre-copy
#: has converged and stop-and-copy begins.
MAX_PRECOPY_ROUNDS = 8
DIRTY_THRESHOLD_PAGES = 32


@dataclass
class MigrationStats:
    """What one migration cost."""

    rounds: list[int] = field(default_factory=list)  # pages shipped per round
    total_pages: int = 0
    total_bytes: int = 0
    #: Freeze -> restored-and-reattached, microseconds.
    downtime_us: int = 0
    #: First pre-copy byte -> destination serving, microseconds.
    total_us: int = 0
    converged: bool = False


class LiveMigration:
    """Migrates containers from one host/runtime to another."""

    def __init__(
        self,
        source_runtime: "ContainerRuntime",
        dest_runtime: "ContainerRuntime",
        source_endpoint: Endpoint,
        dest_endpoint: Endpoint,
        config: CriuConfig | None = None,
        plug_egress_on_restore: bool = False,
    ) -> None:
        self.source_runtime = source_runtime
        self.dest_runtime = dest_runtime
        self.source_endpoint = source_endpoint
        self.dest_endpoint = dest_endpoint
        self.config = config if config is not None else CriuConfig.nilicon()
        #: Close the restored container's egress plug before it can run a
        #: single slice.  Set when migrating an output-committed (NiLiCon
        #: replicated) container: its output must stay fenced until the new
        #: pair's replication is re-established, with no unplugged window.
        self.plug_egress_on_restore = plug_egress_on_restore
        self.engine: Engine = source_runtime.kernel.engine
        self.checkpoint_engine = CheckpointEngine(source_runtime.kernel, self.config)
        self.restore_engine = RestoreEngine(dest_runtime.kernel, self.config)

    # ------------------------------------------------------------------ #
    def _transfer(self, payload: Any, n_pages: int, extra_bytes: int = 4096):
        """Ship *n_pages* (+metadata) over the migration link; returns an
        event that completes when the destination has received it."""
        size = n_pages * PAGE_SIZE + extra_bytes
        self.source_endpoint.send(
            {"kind": "migration", "payload": payload}, size_bytes=size
        )
        return self.dest_endpoint.recv()

    def _predump(self, container: "Container") -> Generator[Any, Any, dict[int, dict[int, bytes]]]:
        """Round 0: snapshot every resident page, without freezing."""
        procfs = self.source_runtime.kernel.procfs
        shipment: dict[int, dict[int, bytes]] = {}
        for process in container.processes:
            # Start (or restart) dirty tracking for the following rounds.
            yield from procfs.clear_refs(process)
            pages = process.mm.full_snapshot()
            # Pre-dump reads memory from outside (process_vm_readv-style);
            # charge proportional copy time.
            yield self.engine.timeout(
                self.source_runtime.kernel.costs.page_copy_cost(len(pages))
            )
            shipment[process.pid] = pages
        return shipment

    def _dirty_round(self, container: "Container") -> Generator[Any, Any, dict[int, dict[int, bytes]]]:
        """One pre-copy iteration: ship pages dirtied since the last round."""
        procfs = self.source_runtime.kernel.procfs
        shipment: dict[int, dict[int, bytes]] = {}
        for process in container.processes:
            dirty = yield from procfs.pagemap_dirty(process)
            snapshot = process.mm.snapshot_pages(sorted(dirty))
            yield from procfs.clear_refs(process)
            yield self.engine.timeout(
                self.source_runtime.kernel.costs.page_copy_cost(len(snapshot))
            )
            shipment[process.pid] = snapshot
        return shipment

    # ------------------------------------------------------------------ #
    def migrate(self, container: "Container") -> Generator[Any, Any, tuple["Container", MigrationStats]]:
        """Move *container* to the destination; returns (new container, stats)."""
        stats = MigrationStats()
        start = self.engine.now
        bridge = container.bridge

        # Accumulated page state at the destination, per source pid.
        dest_pages: dict[int, dict[int, bytes]] = {}

        def absorb(shipment: dict[int, dict[int, bytes]]) -> int:
            count = 0
            for pid, pages in shipment.items():
                dest_pages.setdefault(pid, {}).update(pages)
                count += len(pages)
            return count

        # Round 0: full pre-dump, then iterate on the dirty delta.
        shipment = yield from self._predump(container)
        shipped = absorb(shipment)
        stats.rounds.append(shipped)
        yield self._transfer(shipment, shipped)

        for _round in range(MAX_PRECOPY_ROUNDS):
            shipment = yield from self._dirty_round(container)
            shipped = absorb(shipment)
            stats.rounds.append(shipped)
            yield self._transfer(shipment, shipped)
            if shipped <= DIRTY_THRESHOLD_PAGES:
                stats.converged = True
                break

        # Stop-and-copy: block input first (SSIII — packets arriving after
        # the socket snapshot would be acknowledged by the source's kernel
        # and then lost with it), then freeze and take the final state.
        freeze_start = self.engine.now
        container.veth.ingress_plug.plug()
        yield self.engine.timeout(self.source_runtime.kernel.costs.plug_block)
        yield from container.freeze(poll=self.config.freeze_poll)
        image: CheckpointImage = yield from self.checkpoint_engine.checkpoint(
            container, incremental=True
        )
        final_pages = 0
        for pimage in image.processes:
            dest_pages.setdefault(pimage.pid, {}).update(pimage.pages)
            final_pages += pimage.page_count
        stats.rounds.append(final_pages)
        yield self._transfer(image, final_pages, extra_bytes=image.size_bytes())

        # Restore on the destination (veth detached; input cannot race the
        # socket restore, SSIII).
        state = FullState(
            spec=container.spec,
            processes=[
                {
                    "comm": p.comm,
                    "vmas": p.vmas,
                    "pages": dest_pages.get(p.pid, {}),
                    "threads": p.threads,
                    "fd_entries": p.fd_entries,
                }
                for p in image.processes
            ],
            sockets=image.sockets,
            namespaces=image.namespaces,
            cgroup=image.cgroup,
            fs_inode_entries=image.fs_inode_entries,
            fs_page_entries=image.fs_page_entries,
        )
        # The source must release its name/address before the destination
        # runtime can own them.
        self.source_runtime.containers.pop(container.name, None)
        container.veth.detach()
        new_container = yield from self.restore_engine.restore(self.dest_runtime, state)
        if self.plug_egress_on_restore:
            new_container.veth.egress_plug.plug()

        costs = self.dest_runtime.kernel.costs
        yield self.engine.timeout(costs.bridge_reconnect)
        port = bridge.attach(new_container.veth)
        yield self.engine.timeout(costs.gratuitous_arp)
        bridge.gratuitous_arp(container.spec.ip, port)
        new_container.start_keepalive()

        stats.downtime_us = self.engine.now - freeze_start
        stats.total_us = self.engine.now - start
        stats.total_pages = sum(stats.rounds)
        stats.total_bytes = stats.total_pages * PAGE_SIZE + image.size_bytes()

        # The source container is gone (its state now lives elsewhere).
        container.destroy()
        return new_container, stats
