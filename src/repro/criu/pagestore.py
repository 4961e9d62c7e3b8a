"""Backup-side stores of committed checkpoint pages.

Stock CRIU keeps incremental checkpoints as a linked list of directories;
processing each received page requires walking the list to find and drop a
previous copy — cost grows with the number of checkpoints taken.  NiLiCon
replaces this with a four-level radix tree "mimicking the implementation of
the hardware page tables", making per-page processing O(1) and independent
of history (paper §V-A, the first CRIU optimization).

Both implementations below are *content-equivalent* (property-tested
against a plain dict oracle); they differ in the simulated processing cost
they report per stored page, which the backup agent charges as CPU time.
"""

from __future__ import annotations

from typing import Dict, Iterator, Protocol

from repro.kernel.costmodel import CostModel

__all__ = ["LinkedListPageStore", "PageStore", "RadixTreePageStore", "RADIX_BITS"]

#: Radix-tree fanout: 9 bits per level, 4 levels — the x86-64 page-table
#: shape the paper's optimization mimics.
RADIX_BITS = 9
RADIX_FANOUT = 1 << RADIX_BITS
RADIX_LEVELS = 4


class PageStore(Protocol):
    """What the backup agent requires of a page store.

    A checkpoint is *open* between :meth:`begin_checkpoint` and either
    :meth:`commit_checkpoint` or :meth:`abort_checkpoint`.  Abort undoes
    every page stored since the matching begin, restoring the store to the
    last committed checkpoint — the rollback a failover needs when it
    interrupts an in-flight commit.
    """

    #: Lifetime pages stored (perf-profiler harvest).
    pages_stored: int

    @property
    def checkpoint_open(self) -> bool: ...

    def begin_checkpoint(self) -> None: ...

    def commit_checkpoint(self) -> None: ...

    def abort_checkpoint(self) -> None: ...

    def store_page(self, pid: int, page_idx: int, content: bytes) -> int: ...

    def pages_of(self, pid: int) -> Dict[int, bytes]: ...

    def lookup(self, pid: int, page_idx: int) -> bytes | None: ...


class RadixTreePageStore:
    """NiLiCon's store: per-pid four-level radix tree, O(1) per page."""

    def __init__(self, costs: CostModel) -> None:
        self.costs = costs
        self._roots: dict[int, list] = {}
        self.checkpoints_taken = 0
        #: Lifetime pages stored (perf-profiler harvest; always on).
        self.pages_stored = 0
        #: Allocated interior nodes (diagnostics; shows the tree is real).
        self.nodes_allocated = 0
        #: Undo log of the open checkpoint, flat: ``pid, page_idx, prior
        #: content or None`` per slot stored since begin_checkpoint, three
        #: entries a page so a commit of the whole resident set allocates no
        #: object per page.
        self._undo: list[int | bytes | None] = []
        self._open = False

    @property
    def checkpoint_open(self) -> bool:
        return self._open

    def _new_node(self) -> list:
        self.nodes_allocated += 1
        return [None] * RADIX_FANOUT

    def begin_checkpoint(self) -> None:
        self.checkpoints_taken += 1
        self._open = True
        self._undo.clear()

    def commit_checkpoint(self) -> None:
        self._open = False
        self._undo.clear()

    def abort_checkpoint(self) -> None:
        """Roll the tree back to the last committed checkpoint."""
        if not self._open:
            return
        undo = self._undo
        # Newest first, so a slot stored twice ends at its oldest prior.
        for at in range(len(undo) - 3, -1, -3):
            pid, page_idx, prior = undo[at:at + 3]
            i0, i1, i2, i3 = self._indices(page_idx)
            node = self._roots[pid]
            for idx in (i0, i1, i2):
                node = node[idx]
            node[i3] = prior
        undo.clear()
        self._open = False
        self.checkpoints_taken -= 1

    @staticmethod
    def _indices(page_idx: int) -> tuple[int, int, int, int]:
        return (
            (page_idx >> (3 * RADIX_BITS)) & (RADIX_FANOUT - 1),
            (page_idx >> (2 * RADIX_BITS)) & (RADIX_FANOUT - 1),
            (page_idx >> RADIX_BITS) & (RADIX_FANOUT - 1),
            page_idx & (RADIX_FANOUT - 1),
        )

    def store_page(self, pid: int, page_idx: int, content: bytes) -> int:  # hot: per-page -- every committed page funnels through here
        """Store one page; returns the processing cost in microseconds."""
        self.pages_stored += 1
        root = self._roots.get(pid)
        if root is None:
            root = self._roots[pid] = self._new_node()
        i0, i1, i2, i3 = self._indices(page_idx)
        node = root
        for idx in (i0, i1, i2):
            child = node[idx]
            if child is None:
                child = node[idx] = self._new_node()
            node = child
        if self._open:
            self._undo += (pid, page_idx, node[i3])
        node[i3] = content
        return self.costs.pagestore_radix_per_page

    def lookup(self, pid: int, page_idx: int) -> bytes | None:
        node = self._roots.get(pid)
        if node is None:
            return None
        i0, i1, i2, i3 = self._indices(page_idx)
        for idx in (i0, i1, i2):
            node = node[idx]
            if node is None:
                return None
        return node[i3]

    def _walk(self, node: list, prefix: int, level: int) -> Iterator[tuple[int, bytes]]:
        for idx, child in enumerate(node):
            if child is None:
                continue
            key = (prefix << RADIX_BITS) | idx
            if level == RADIX_LEVELS - 1:
                yield key, child
            else:
                yield from self._walk(child, key, level + 1)

    def pages_of(self, pid: int) -> Dict[int, bytes]:
        root = self._roots.get(pid)
        if root is None:
            return {}
        return dict(self._walk(root, 0, 0))


class LinkedListPageStore:
    """Stock CRIU's store: a linked list of checkpoint directories.

    Every received page triggers a scan through previous directories to
    find and remove an older copy, so per-page cost grows with checkpoint
    count — the pathology NiLiCon's radix tree removes.
    """

    def __init__(self, costs: CostModel) -> None:
        self.costs = costs
        #: Oldest-first list of {(pid, page_idx): content} directories.
        self._dirs: list[dict[tuple[int, int], bytes]] = []
        self.checkpoints_taken = 0
        #: Lifetime pages stored (perf-profiler harvest; always on).
        self.pages_stored = 0
        #: Undo log of the open checkpoint: stale copies popped from earlier
        #: directories, as (directory index, key, content).
        self._undo: list[tuple[int, tuple[int, int], bytes]] = []
        self._open = False

    @property
    def checkpoint_open(self) -> bool:
        return self._open

    def begin_checkpoint(self) -> None:
        self.checkpoints_taken += 1
        self._dirs.append({})
        self._open = True
        self._undo.clear()

    def commit_checkpoint(self) -> None:
        self._open = False
        self._undo.clear()

    def abort_checkpoint(self) -> None:
        """Drop the open directory and restore the stale copies it evicted."""
        if not self._open:
            return
        self._dirs.pop()
        for dir_idx, key, content in reversed(self._undo):
            self._dirs[dir_idx][key] = content
        self._undo.clear()
        self._open = False
        self.checkpoints_taken -= 1

    def store_page(self, pid: int, page_idx: int, content: bytes) -> int:  # hot: per-page -- stock-CRIU path; cost grows with checkpoint count
        self.pages_stored += 1
        if not self._dirs:
            self.begin_checkpoint()
        key = (pid, page_idx)
        # Walk all previous directories, dropping stale copies.
        searched = 0
        for dir_idx, directory in enumerate(self._dirs[:-1]):
            searched += 1
            stale = directory.pop(key, None)
            if stale is not None and self._open:
                self._undo.append((dir_idx, key, stale))
        self._dirs[-1][key] = content
        return (searched + 1) * self.costs.pagestore_list_per_page_per_ckpt

    def lookup(self, pid: int, page_idx: int) -> bytes | None:
        key = (pid, page_idx)
        for directory in reversed(self._dirs):
            if key in directory:
                return directory[key]
        return None

    def pages_of(self, pid: int) -> Dict[int, bytes]:
        merged: dict[int, bytes] = {}
        for directory in self._dirs:
            for (owner, page_idx), content in directory.items():
                if owner == pid:
                    merged[page_idx] = content
        return merged
