"""Checkpoint images: everything a container restore needs.

One :class:`CheckpointImage` is produced per epoch.  Incremental images
carry only the pages dirtied since the previous checkpoint and only the
in-kernel components that changed; the backup keeps the union (see
:mod:`repro.criu.pagestore` and the backup agent) and materializes a full
image at failover.

Size accounting matters: the image's :meth:`CheckpointImage.size_bytes`
drives transfer time on the 10 GbE pair link and the Table IV state-size
distribution.  Dirty pages dominate ("85% to over 95%" per the paper), with
TCP read/write queues the next largest component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.costmodel import PAGE_SIZE

__all__ = ["CheckpointImage", "ProcessImage"]

#: Serialized overhead per thread descriptor (registers, masks, timers).
THREAD_DESC_BYTES = 1_024
#: Serialized overhead per fd-table entry.
FD_DESC_BYTES = 64
#: Serialized overhead per socket beyond its queue contents.
SOCKET_DESC_BYTES = 256
#: Serialized size of namespace/cgroup/mount descriptions.
NAMESPACE_DESC_BYTES = 4_096
#: Serialized VMA descriptor.
VMA_DESC_BYTES = 56
#: Inode-cache entry in the fs-cache checkpoint.
INODE_DESC_BYTES = 160


@dataclass
class ProcessImage:
    """Per-process slice of a checkpoint."""

    pid: int
    comm: str
    vmas: list[dict] = field(default_factory=list)
    #: Page contents captured this epoch: page index -> token.
    pages: dict[int, bytes] = field(default_factory=dict)
    threads: list[dict] = field(default_factory=list)
    fd_entries: list[dict] = field(default_factory=list)

    @property
    def page_count(self) -> int:
        return len(self.pages)

    def size_bytes(self) -> int:
        return (
            len(self.pages) * PAGE_SIZE
            + len(self.vmas) * VMA_DESC_BYTES
            + len(self.threads) * THREAD_DESC_BYTES
            + len(self.fd_entries) * FD_DESC_BYTES
        )


@dataclass
class CheckpointImage:
    """One epoch's checkpoint."""

    epoch: int
    container_name: str
    incremental: bool
    processes: list[ProcessImage] = field(default_factory=list)
    #: TCP socket states: listener descriptors and repair-mode dumps.
    sockets: list[dict] = field(default_factory=list)
    #: Infrequently-modified container state (None in an incremental image
    #: when unchanged and served from cache by reference).
    namespaces: dict | None = None
    cgroup: dict | None = None
    mapped_file_stats: list[dict] = field(default_factory=list)
    #: Whether the infrequent state above came from the NiLiCon cache
    #: (metrics only; restores treat both identically).
    infrequent_from_cache: bool = False
    #: File-system cache checkpoint (fgetfc output).
    fs_inode_entries: list[dict] = field(default_factory=list)
    fs_page_entries: list[tuple[str, int, bytes]] = field(default_factory=list)

    @property
    def dirty_page_count(self) -> int:
        return sum(p.page_count for p in self.processes)

    def socket_queue_bytes(self) -> int:
        total = 0
        for sock in self.sockets:
            state = sock.get("repair_state")
            if state:
                total += len(state["recv_buffer"])
                total += sum(len(payload) for _seq, payload in state["write_queue"])
        return total

    def size_bytes(self) -> int:
        """Bytes that must cross the pair link for this image."""
        total = sum(p.size_bytes() for p in self.processes)
        total += len(self.sockets) * SOCKET_DESC_BYTES + self.socket_queue_bytes()
        if self.namespaces is not None:
            total += NAMESPACE_DESC_BYTES
        if self.cgroup is not None:
            total += NAMESPACE_DESC_BYTES // 4
        total += len(self.mapped_file_stats) * FD_DESC_BYTES
        total += len(self.fs_inode_entries) * INODE_DESC_BYTES
        total += sum(
            len(content) if content is not None else 16
            for _p, _i, content in self.fs_page_entries
        )
        return total

    def chunk_count(self) -> int:
        """How many read()-sized chunks the backup receives this image in.

        Bulk page data streams in large chunks; socket queues and per-thread
        descriptors arrive as many small reads (Table V: fine-grained state
        raises backup CPU use).
        """
        bulk_chunks = max(1, self.dirty_page_count // 64)
        small_items = (
            len(self.sockets) * 4
            + sum(len(p.threads) for p in self.processes)
            + len(self.fs_page_entries)
        )
        return bulk_chunks + small_items
