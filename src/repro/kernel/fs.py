"""VFS with a page cache and inode cache carrying DNC state.

The paper's key filesystem contribution (§III): CRIU expects containers to
use a NAS and flushes the file system cache after each checkpoint — too slow
at tens-of-milliseconds epochs.  NiLiCon instead adds a *Dirty-but-Not-
Checkpointed* (DNC) bit to page-cache pages and inode-cache entries, plus a
``fgetfc`` system call that returns all DNC entries and clears the bit.

This module implements exactly that: real byte content in the page cache,
``dirty`` (needs disk writeback) and ``dnc`` (needs checkpointing) tracked
independently, and both the NAS-flush path (for the unoptimized baseline)
and the ``fgetfc`` path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.kernel.blockdev import BLOCK_SIZE, BlockDevice
from repro.kernel.errors import FileSystemError

__all__ = ["FileSystem", "Inode", "OpenFile"]

_ino_counter = itertools.count(2)


@dataclass
class Inode:
    """Inode-cache entry; metadata mutations set the DNC bit."""

    path: str
    ino: int = field(default_factory=lambda: next(_ino_counter))  # ckpt: derived -- host-local identity; backup allocates its own
    mode: int = 0o644
    uid: int = 0
    gid: int = 0
    size: int = 0
    #: Monotone version; bumped by every metadata/data mutation.
    version: int = 0
    #: Needs checkpointing (NiLiCon DNC bit).
    dnc: bool = False
    #: Map of file page index -> disk block index (allocated on writeback).
    #: Deliberately absent from metadata(): block placement is host-local
    #: (the backup's writeback allocates its own blocks); logical content
    #: reaches the backup via DNC pages + DRBD, not the block map.
    block_map: dict[int, int] = field(default_factory=dict)  # ckpt: derived

    def metadata(self) -> dict:
        return {
            "path": self.path,
            "ino": self.ino,
            "mode": self.mode,
            "uid": self.uid,
            "gid": self.gid,
            "size": self.size,
            "version": self.version,
        }


@dataclass
class _CachePage:
    data: bytes
    dirty: bool = False  # ckpt: derived -- writeback bookkeeping; backup re-dirties on replay
    dnc: bool = False  # needs checkpointing


@dataclass
class OpenFile:
    """An open file description (what an fd-table entry points at)."""

    inode: Inode  # ckpt: derived -- re-looked-up by path on the backup at restore
    offset: int = 0
    flags: int = 0

    @property
    def path(self) -> str:
        return self.inode.path


class FileSystem:
    """A filesystem instance mounted on a block device."""

    def __init__(self, device: BlockDevice, name: str = "fs") -> None:
        self.device = device  # ckpt: derived -- backup mounts its own (DRBD-replicated) device
        self.name = name  # ckpt: derived -- fixed by the ContainerSpec mounts
        self._inodes: dict[str, Inode] = {}
        self._cache: dict[tuple[int, int], _CachePage] = {}
        #: DNC tombstones: pages invalidated (truncated away) since the
        #: last fgetfc.  Without them, a shrink-then-extend between two
        #: checkpoints would leave the backup's buffered copy of the page
        #: stale (an A-B-A the plain dirty bit cannot express).
        self._tombstones: list[tuple[str, int]] = []
        self._next_block = 0  # ckpt: derived -- block allocation is host-local (see Inode.block_map)
        #: Lifetime counters for metrics.
        self.cache_writes = 0  # ckpt: ephemeral -- host-local metric
        self.writebacks = 0  # ckpt: ephemeral -- host-local metric

    # -- namespace ----------------------------------------------------------
    def create(self, path: str, mode: int = 0o644) -> Inode:
        if path in self._inodes:
            raise FileSystemError(f"{self.name}: {path} exists")
        inode = Inode(path=path, mode=mode, dnc=True, version=1)
        self._inodes[path] = inode
        return inode

    def lookup(self, path: str) -> Inode:
        try:
            return self._inodes[path]
        except KeyError:
            raise FileSystemError(f"{self.name}: no such file {path}") from None

    def exists(self, path: str) -> bool:
        return path in self._inodes

    def open(self, path: str, create: bool = False, flags: int = 0) -> OpenFile:
        if create and path not in self._inodes:
            self.create(path)
        return OpenFile(inode=self.lookup(path), flags=flags)

    def unlink(self, path: str) -> None:
        inode = self.lookup(path)
        for page_idx in list(inode.block_map):
            key = (inode.ino, page_idx)
            self._cache.pop(key, None)
        for key in [k for k in self._cache if k[0] == inode.ino]:
            del self._cache[key]
        del self._inodes[path]

    def paths(self) -> list[str]:
        return sorted(self._inodes)

    # -- metadata mutation ----------------------------------------------------
    def chown(self, path: str, uid: int, gid: int) -> None:
        inode = self.lookup(path)
        inode.uid, inode.gid = uid, gid
        inode.version += 1
        inode.dnc = True

    def chmod(self, path: str, mode: int) -> None:
        inode = self.lookup(path)
        inode.mode = mode
        inode.version += 1
        inode.dnc = True

    def truncate(self, path: str, size: int) -> None:
        inode = self.lookup(path)
        if size < inode.size:
            first_dead = (size + BLOCK_SIZE - 1) // BLOCK_SIZE
            last_page = (inode.size + BLOCK_SIZE - 1) // BLOCK_SIZE
            for idx in range(first_dead, last_page):
                self._tombstones.append((inode.path, idx))
            for key in [k for k in self._cache if k[0] == inode.ino and k[1] >= first_dead]:
                del self._cache[key]
            for page_idx in [p for p in inode.block_map if p >= first_dead]:
                del inode.block_map[page_idx]
            # Zero the tail of the retained partial page: stale bytes past
            # the new EOF must not resurface when the file grows again.
            within = size % BLOCK_SIZE
            if within:
                page = self._load_page(inode, size // BLOCK_SIZE)
                if len(page.data) > within:
                    page.data = page.data[:within]
                    page.dirty = True
                    page.dnc = True
        inode.size = size
        inode.version += 1
        inode.dnc = True

    # -- data path --------------------------------------------------------------
    def _load_page(self, inode: Inode, page_idx: int) -> _CachePage:
        key = (inode.ino, page_idx)
        page = self._cache.get(key)
        if page is None:
            block = inode.block_map.get(page_idx)
            data = self.device.read_block(block) if block is not None else b""
            page = _CachePage(data=data)
            self._cache[key] = page
        return page

    def write(self, path_or_inode: str | Inode, offset: int, data: bytes) -> int:
        """Write through the page cache; returns the number of pages touched.

        Pages become ``dirty`` (for writeback) and ``dnc`` (for the next
        checkpoint).  Content is real bytes, spliced at byte granularity.
        """
        inode = path_or_inode if isinstance(path_or_inode, Inode) else self.lookup(path_or_inode)
        if offset < 0:
            raise FileSystemError("negative offset")
        touched = 0
        pos = offset
        remaining = data
        while remaining:
            page_idx = pos // BLOCK_SIZE
            in_page = pos % BLOCK_SIZE
            chunk = remaining[: BLOCK_SIZE - in_page]
            page = self._load_page(inode, page_idx)
            old = page.data.ljust(in_page + len(chunk), b"\0")
            page.data = old[:in_page] + chunk + old[in_page + len(chunk) :]
            page.dirty = True
            page.dnc = True
            self.cache_writes += 1
            touched += 1
            pos += len(chunk)
            remaining = remaining[len(chunk) :]
        if pos > inode.size:
            inode.size = pos
        inode.version += 1
        inode.dnc = True
        return touched

    def read(self, path_or_inode: str | Inode, offset: int, length: int) -> bytes:
        """Read through the page cache (reads never set DNC)."""
        inode = path_or_inode if isinstance(path_or_inode, Inode) else self.lookup(path_or_inode)
        if offset >= inode.size:
            return b""
        length = min(length, inode.size - offset)
        out = bytearray()
        pos = offset
        end = offset + length
        while pos < end:
            page_idx = pos // BLOCK_SIZE
            in_page = pos % BLOCK_SIZE
            take = min(BLOCK_SIZE - in_page, end - pos)
            page = self._load_page(inode, page_idx)
            chunk = page.data[in_page : in_page + take]
            out += chunk.ljust(take, b"\0")
            pos += take
        return bytes(out)

    # -- writeback ----------------------------------------------------------------
    def _alloc_block(self) -> int:
        block = self._next_block
        self._next_block += 1
        return block

    def dirty_page_count(self) -> int:
        return sum(1 for p in self._cache.values() if p.dirty)

    def writeback(self, limit: int | None = None) -> int:
        """Flush dirty cache pages to the block device; returns pages flushed.

        Flushing clears ``dirty`` but NOT ``dnc`` — a page already sent to
        disk still needs to appear in the next checkpoint (the backup's
        page cache must converge too).
        """
        flushed = 0
        for (ino, page_idx), page in list(self._cache.items()):
            if not page.dirty:
                continue
            inode = self._inode_by_ino(ino)
            block = inode.block_map.get(page_idx)
            if block is None:
                block = self._alloc_block()
                inode.block_map[page_idx] = block
                inode.dnc = True
            self.device.write_block(block, page.data)
            page.dirty = False
            flushed += 1
            self.writebacks += 1
            if limit is not None and flushed >= limit:
                break
        return flushed

    def _inode_by_ino(self, ino: int) -> Inode:
        for inode in self._inodes.values():
            if inode.ino == ino:
                return inode
        raise FileSystemError(f"{self.name}: stale ino {ino}")

    # -- checkpointing: DNC / fgetfc (paper SSIII) ------------------------------
    def fgetfc(self) -> tuple[list[dict], list[tuple[str, int, bytes | None]]]:
        """The new system call: return all DNC entries, clearing DNC.

        Returns ``(inode_entries, page_entries)`` where page entries are
        ``(path, page_idx, content)``; a ``None`` content is a *tombstone*
        (the page was invalidated since the last call).  Tombstones come
        first so in-order application drops stale copies before any newer
        content for the same page lands.  The dirty (writeback) bits are
        left untouched.
        """
        inode_entries = []
        for inode in self._inodes.values():
            if inode.dnc:
                inode_entries.append(inode.metadata())
                inode.dnc = False
        page_entries: list[tuple[str, int, bytes | None]] = [
            (path, idx, None) for path, idx in self._tombstones
        ]
        self._tombstones = []
        for (ino, page_idx), page in self._cache.items():
            if page.dnc:
                inode = self._inode_by_ino(ino)
                page_entries.append((inode.path, page_idx, page.data))
                page.dnc = False
        return inode_entries, page_entries

    def apply_fc_checkpoint(
        self, inode_entries: list[dict], page_entries: list[tuple[str, int, bytes]]
    ) -> None:
        """Restore a file-system-cache checkpoint (backup-side, on failover).

        Uses only "existing system calls, such as chown for the inode cache
        and pwrite for the page cache" — i.e. ordinary mutation paths.
        """
        for meta in inode_entries:
            path = meta["path"]
            if not self.exists(path):
                self.create(path, mode=meta["mode"])
            inode = self.lookup(path)
            inode.mode = meta["mode"]
            inode.uid = meta["uid"]
            inode.gid = meta["gid"]
            if meta["size"] < inode.size:
                # A shrink on the primary invalidated cache pages there; the
                # replayed truncate must drop/zero ours the same way.
                self.truncate(path, meta["size"])
            inode.size = meta["size"]
            inode.version = meta["version"]
            inode.dnc = False
        for path, page_idx, content in page_entries:
            if not self.exists(path):
                continue  # tombstone/page for a file this batch also removed
            inode = self.lookup(path)
            if content is None:
                # Tombstone: the primary invalidated this page.
                self._cache.pop((inode.ino, page_idx), None)
                inode.block_map.pop(page_idx, None)
                continue
            page = self._load_page(inode, page_idx)
            page.data = content
            page.dirty = True  # will reach the backup disk via writeback
            page.dnc = False

    # -- NAS-flush baseline (stock CRIU behaviour) ---------------------------------
    def flush_all_to_device(self) -> int:
        """Flush the entire dirty cache; models CRIU's NAS commit."""
        return self.writeback(limit=None)

    # -- validation helpers --------------------------------------------------------
    def file_content(self, path: str) -> bytes:
        """Full logical content of a file, merging cache over disk."""
        inode = self.lookup(path)
        return self.read(inode, 0, inode.size)

    def logical_state(self) -> dict[str, bytes]:
        """Full logical filesystem state (for failover equivalence checks)."""
        return {path: self.file_content(path) for path in self._inodes}
