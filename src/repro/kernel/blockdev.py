"""Virtual block devices.

A :class:`BlockDevice` stores 4 KiB blocks as real bytes.  Write *hooks* are
the attachment point for the DRBD-style replication module
(:mod:`repro.replication.drbd`): every committed block write is presented to
each hook, exactly as DRBD intercepts bios below the filesystem.

Timing is charged by callers (the kernel wrapper / agents); the device
itself is pure state so it can also be used synchronously in tests.
"""

from __future__ import annotations

from typing import Callable

from repro.kernel.costmodel import PAGE_SIZE
from repro.kernel.errors import FileSystemError

__all__ = ["BlockDevice"]

BLOCK_SIZE = PAGE_SIZE
#: Blocks per device (4 GiB of 4 KiB blocks; storage is sparse).
N_BLOCKS = 1 << 20

WriteHook = Callable[[int, bytes], None]


class BlockDevice:
    """A sparse array of blocks with write interception."""

    #: Replicated block-for-block by DRBD (paper SSIII), not by CRIU images;
    #: logical file content reaches the backup via DNC pages + writeback.
    __ckpt_ignore__ = True

    def __init__(self, name: str) -> None:
        self.name = name
        self._blocks: dict[int, bytes] = {}
        self._write_hooks: list[WriteHook] = []
        #: Lifetime write counter (metrics / DRBD barrier bookkeeping).
        self.writes: int = 0

    def add_write_hook(self, hook: WriteHook) -> None:
        self._write_hooks.append(hook)

    def remove_write_hook(self, hook: WriteHook) -> None:
        self._write_hooks.remove(hook)

    def _check(self, idx: int) -> None:
        if not 0 <= idx < N_BLOCKS:
            raise FileSystemError(f"{self.name}: block {idx} out of range")

    def write_block(self, idx: int, data: bytes) -> None:
        """Write one block (data may be shorter than a block; zero-padded)."""
        self._check(idx)
        if len(data) > BLOCK_SIZE:
            raise FileSystemError(f"{self.name}: write of {len(data)} bytes > block size")
        self._blocks[idx] = data
        self.writes += 1
        for hook in self._write_hooks:
            hook(idx, data)

    def write_block_raw(self, idx: int, data: bytes) -> None:
        """Write bypassing hooks (used when DRBD *applies* mirrored writes,
        to avoid re-mirroring on the backup)."""
        self._check(idx)
        self._blocks[idx] = data

    def read_block(self, idx: int) -> bytes:
        self._check(idx)
        return self._blocks.get(idx, b"")

    def snapshot(self) -> dict[int, bytes]:
        """Full content copy (tests / validation)."""
        return dict(self._blocks)

    def load_snapshot(self, blocks: dict[int, bytes]) -> None:
        """Initialize content (e.g. making primary and backup disks
        identical before an experiment, as Remus requires)."""
        self._blocks = dict(blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockDevice):
            return NotImplemented
        # Empty and absent blocks are equivalent.
        mine = {k: v for k, v in self._blocks.items() if v}
        theirs = {k: v for k, v in other._blocks.items() if v}
        return mine == theirs

    __hash__ = None  # type: ignore[assignment]
