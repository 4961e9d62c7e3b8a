"""DRBD-style replicated disks with Remus epoch barriers (paper §II-A, §IV).

The primary's block device gets a write hook: every committed block write is
asynchronously mirrored over the pair channel.  At each checkpoint the
primary agent sends a *barrier* marking the end of the epoch's writes.  The
backup buffers mirrored writes in memory, grouped by epoch; an epoch's
writes are applied to the backup disk only when the backup agent commits
that epoch (state + disk both received) — and discarded if the primary dies
first, exactly like RemusXen's DRBD patch.
"""

from __future__ import annotations

from collections import defaultdict
from repro.kernel.blockdev import BlockDevice
from repro.net.link import Endpoint
from repro.sim.access import record_access
from repro.sim.engine import Engine, Event

__all__ = ["BackupDrbd", "PrimaryDrbd"]

#: Wire overhead per mirrored block write (header + block payload handled
#: via actual data length).
DISK_MSG_HEADER = 32


class PrimaryDrbd:
    """Primary-side DRBD: intercept writes, mirror them, emit barriers."""

    def __init__(self, device: BlockDevice, endpoint: Endpoint, disk_index: int = 0) -> None:
        self.device = device
        self.endpoint = endpoint
        self.disk_index = disk_index
        self.current_epoch = 0
        self.writes_this_epoch = 0
        device.add_write_hook(self._on_write)

    def _on_write(self, block_idx: int, data: bytes) -> None:
        self.writes_this_epoch += 1
        self.endpoint.send(
            {"kind": "disk_write", "disk": self.disk_index,
             "epoch": self.current_epoch, "block": block_idx, "data": data},
            size_bytes=DISK_MSG_HEADER + len(data),
        )

    def send_barrier(self, epoch: int) -> None:
        """Mark the end of *epoch*'s disk writes and roll to the next."""
        self.endpoint.send(
            {"kind": "disk_barrier", "disk": self.disk_index,
             "epoch": epoch, "writes": self.writes_this_epoch},
            size_bytes=DISK_MSG_HEADER,
        )
        self.current_epoch = epoch + 1
        self.writes_this_epoch = 0

    def detach(self) -> None:
        self.device.remove_write_hook(self._on_write)


class BackupDrbd:
    """Backup-side DRBD: buffer mirrored writes, apply on epoch commit."""

    def __init__(self, engine: Engine, device: BlockDevice) -> None:
        self.engine = engine
        self.device = device
        #: epoch -> ordered list of (block_idx, data).
        self._pending: dict[int, list[tuple[int, bytes]]] = defaultdict(list)
        #: epoch -> declared write count from the barrier message.
        self._barrier_counts: dict[int, int] = {}
        #: epoch -> event triggered when all of the epoch's writes are here.
        self._complete_events: dict[int, Event] = {}
        self.committed_epochs: list[int] = []

    # -- receive path (called by the backup agent's dispatcher) -----------------
    def on_disk_write(self, epoch: int, block_idx: int, data: bytes) -> None:
        record_access(self.engine, self, "disk_pending", "w", key=epoch,
                      site="drbd.on_disk_write")
        self._pending[epoch].append((block_idx, data))
        self._maybe_complete(epoch)

    def on_barrier(self, epoch: int, writes: int) -> None:
        record_access(self.engine, self, "disk_pending", "w", key=epoch,
                      site="drbd.on_barrier")
        self._barrier_counts[epoch] = writes
        self._maybe_complete(epoch)

    def _maybe_complete(self, epoch: int) -> None:
        expected = self._barrier_counts.get(epoch)
        if expected is None or len(self._pending.get(epoch, ())) < expected:
            return
        event = self._complete_events.get(epoch)
        if event is not None and not event.triggered:
            event.succeed(None)

    def epoch_complete(self, epoch: int) -> Event:
        """Event triggering once every write of *epoch* (per its barrier)
        has been received.  Triggers immediately if already complete."""
        event = self._complete_events.get(epoch)
        if event is None:
            event = Event(self.engine)
            self._complete_events[epoch] = event
            expected = self._barrier_counts.get(epoch)
            if expected is not None and len(self._pending.get(epoch, ())) >= expected:
                event.succeed(None)
        return event

    # -- commit / discard ----------------------------------------------------------
    def apply_epoch(self, epoch: int) -> int:
        """Synchronously apply *epoch*'s buffered writes to the backup disk.

        No simulated time passes here: the caller charges the commit cost
        beforehand so this can run inside an atomic (no-yield) publication
        section — a recovery that interrupts the commit then sees either no
        write of the epoch applied or all of them.
        """
        record_access(self.engine, self, "disk_pending", "w", key=epoch,
                      site="drbd.apply_epoch")
        writes = self._pending.pop(epoch, [])
        self._barrier_counts.pop(epoch, None)
        self._complete_events.pop(epoch, None)
        for block_idx, data in writes:
            # Raw write: must not re-trigger mirroring hooks on the backup.
            self.device.write_block_raw(block_idx, data)
        self.committed_epochs.append(epoch)
        return len(writes)

    def discard_uncommitted(self) -> int:
        """Failover: drop every buffered-but-uncommitted epoch."""
        record_access(self.engine, self, "disk_pending", "w",
                      site="drbd.discard_uncommitted")
        dropped = sum(len(v) for v in self._pending.values())
        self._pending.clear()
        self._barrier_counts.clear()
        self._complete_events.clear()
        return dropped
