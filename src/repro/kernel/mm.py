"""Virtual memory: address spaces, VMAs, pages, soft-dirty tracking.

The memory model is page-granular.  A page's *content* is an opaque bytes
token written by the workload (not a full 4 KiB buffer — copying real 4 KiB
buffers for millions of simulated page writes would make runs intractable,
and checkpoint correctness only needs content identity, which tokens give
exactly).  The page **size** used for all byte-volume accounting is
:data:`~repro.kernel.costmodel.PAGE_SIZE`.

Dirty tracking supports the two mechanisms the paper contrasts:

* ``soft_dirty`` — Linux soft-dirty PTEs: the kernel sets a bit on the first
  write after ``clear_refs``; CRIU reads the bits back from ``pagemap``.
  The first write per page per tracking period incurs a cheap minor fault.
* ``wrprotect`` — hypervisor-style write protection (Remus/MC): the first
  write per page per epoch triggers a VM exit + entry, an order of magnitude
  more expensive.  MC uses this; the cost difference is the main reason
  NiLiCon's *runtime* overhead is lower (paper §VII-C).

Both report the same dirty sets; they differ only in the per-fault cost that
:class:`AddressSpace` accumulates in :attr:`AddressSpace.pending_fault_us`,
which the workload driver charges as simulated time.

Every page access resolves its VMA, so :class:`AddressSpace` indexes its
sorted, disjoint VMA list: a parallel list of VMA starts turns
:meth:`AddressSpace.find_vma` into one ``bisect`` plus an end check, and the
first heap mapping is kept at hand for workloads that address it per key.
Only :meth:`~AddressSpace.mmap` and :meth:`~AddressSpace.munmap` change the
list, and both maintain the index; restore rebuilds it through ``mmap``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Literal

from repro.kernel.costmodel import PAGE_SIZE, CostModel
from repro.kernel.errors import AddressError

__all__ = ["AddressSpace", "Vma", "VmaKind", "PAGE_SIZE"]

VmaKind = Literal["anon", "file", "shared", "stack", "heap", "vdso"]


@dataclass
class Vma:
    """One virtual memory area, as CRIU sees it in smaps/task-diag.

    ``start`` is a page index (not a byte address); the VMA covers pages
    ``[start, start + n_pages)``.
    """

    start: int
    n_pages: int
    prot: str = "rw-"
    kind: VmaKind = "anon"
    #: Path of the backing file for file-backed VMAs (dynamic libraries,
    #: mmapped data files); ``None`` for anonymous memory.
    file_path: str | None = None
    file_offset: int = 0
    name: str = ""

    @property
    def end(self) -> int:
        return self.start + self.n_pages

    def overlaps(self, other: "Vma") -> bool:
        return self.start < other.end and other.start < self.end

    def describe(self) -> dict:
        """Plain-dict form used in checkpoint images."""
        return {
            "start": self.start,
            "n_pages": self.n_pages,
            "prot": self.prot,
            "kind": self.kind,
            "file_path": self.file_path,
            "file_offset": self.file_offset,
            "name": self.name,
        }

    @classmethod
    def from_description(cls, desc: dict) -> "Vma":
        return cls(**desc)


@dataclass
class _TrackingState:
    """Dirty-tracking bookkeeping for one address space."""

    #: This IS the soft-dirty machinery: tracking restarts fresh after every
    #: checkpoint (clear_refs) and after restore, never round-trips.
    __ckpt_ignore__ = True

    enabled: bool = False
    mode: Literal["soft_dirty", "wrprotect"] = "soft_dirty"
    dirty: set[int] = field(default_factory=set)
    #: Number of first-write faults since tracking (re)started.
    faults: int = 0


class AddressSpace:
    """The memory of one process (or one whole VM for the MC baseline)."""

    def __init__(self, costs: CostModel, name: str = "mm") -> None:
        self.costs = costs  # ckpt: derived -- host infrastructure handle
        self.name = name  # ckpt: derived -- rebuilt from container/comm at restore
        self.vmas: list[Vma] = []
        #: ``vmas[i].start`` for every i: the bisect index of find_vma.
        self.vma_starts: list[int] = []  # ckpt: derived -- rebuilt by mmap as restore re-maps the VMA list
        #: The first ``kind == "heap"`` mapping, or ``None``.
        self.heap_vma: Vma | None = None  # ckpt: derived -- rebuilt by mmap as restore re-maps the VMA list
        #: Resident pages: page index -> content token.
        self.pages: dict[int, bytes] = {}
        self._tracking = _TrackingState()  # ckpt: ephemeral -- restarted fresh after restore
        #: Optional shadow observer installed by the runtime state auditor
        #: (:class:`repro.analysis.auditor.StateAuditor`); ``None`` when
        #: auditing is off, so the hot path pays one attribute test.
        self.audit_hook: object | None = None  # ckpt: ephemeral -- observer, reinstalled by the auditor
        #: Optional write-capture observer installed by the HyCoR log
        #: shipper (:class:`repro.replication.hycor.LogShipper`): called
        #: with ``(page_idx, token)`` on every write so mutations land in
        #: the nondeterminism log.  Same one-attribute-test discipline as
        #: ``audit_hook``.
        self.capture_hook: object | None = None  # ckpt: ephemeral -- observer, reinstalled by the shipper
        #: Nanoseconds of fault overhead accrued but not yet charged as
        #: simulated time; the workload driver drains this (see module doc).
        #: KNOWN GAP (lint-baseline.json): fault time accrued but not yet
        #: charged at freeze is lost at failover — bounded by one slice.
        self.pending_fault_ns: int = 0
        #: Lifetime fault counter (metrics).
        self.total_faults: int = 0  # ckpt: ephemeral -- host-local metric
        #: Lifetime page-write / snapshot counters, harvested by the perf
        #: profiler (repro.sim.profiler); plain int adds, always on.
        self.pages_written: int = 0  # ckpt: ephemeral -- host-local metric
        self.pages_snapshotted: int = 0  # ckpt: ephemeral -- host-local metric

    # -- mapping ----------------------------------------------------------
    def mmap(self, vma: Vma) -> Vma:
        """Map a new VMA; rejects an empty one and overlap with an existing one."""
        if vma.n_pages < 1:
            raise AddressError(f"{self.name}: empty VMA at page {vma.start}")
        pos = bisect_right(self.vma_starts, vma.start)
        # The list is sorted and disjoint, so only the two neighbours of the
        # insertion point can overlap the new VMA.
        for existing in self.vmas[max(pos - 1, 0) : pos + 1]:
            if existing.overlaps(vma):
                raise AddressError(
                    f"{self.name}: VMA [{vma.start},{vma.end}) overlaps "
                    f"[{existing.start},{existing.end})"
                )
        self.vmas.insert(pos, vma)
        self.vma_starts.insert(pos, vma.start)
        if vma.kind == "heap" and (self.heap_vma is None or vma.start < self.heap_vma.start):
            self.heap_vma = vma
        return vma

    def munmap(self, vma: Vma) -> None:
        """Unmap *vma* and drop its resident pages."""
        pos = bisect_left(self.vma_starts, vma.start)
        if pos == len(self.vmas) or self.vmas[pos] != vma:
            raise AddressError(f"{self.name}: munmap of unmapped VMA")
        removed = self.vmas.pop(pos)
        del self.vma_starts[pos]
        if removed is self.heap_vma:
            self.heap_vma = next((v for v in self.vmas if v.kind == "heap"), None)
        for idx in range(vma.start, vma.end):
            self.pages.pop(idx, None)
            self._tracking.dirty.discard(idx)
            if self.audit_hook is not None:
                self.audit_hook.page_unmapped(idx)

    def find_vma(self, page_idx: int) -> Vma:
        pos = bisect_right(self.vma_starts, page_idx) - 1
        if pos >= 0:
            vma = self.vmas[pos]
            if page_idx < vma.start + vma.n_pages:
                return vma
        raise AddressError(f"{self.name}: page {page_idx} is not mapped")

    @property
    def mapped_files(self) -> list[str]:
        """Paths of distinct file-backed mappings (stat'ed at checkpoint)."""
        seen: dict[str, None] = {}
        for vma in self.vmas:
            if vma.file_path is not None:
                seen.setdefault(vma.file_path, None)
        return list(seen)

    # -- access -----------------------------------------------------------
    def write(self, page_idx: int, token: bytes) -> None:  # hot: per-page -- every workload memory write lands here
        """Write *token* into a page, faulting for dirty tracking."""
        self.find_vma(page_idx)  # validates the mapping
        tracking = self._tracking
        if tracking.enabled and page_idx not in tracking.dirty:
            tracking.dirty.add(page_idx)
            tracking.faults += 1
            self.total_faults += 1
            if tracking.mode == "soft_dirty":
                self.pending_fault_ns += self.costs.soft_dirty_fault_ns
            else:
                self.pending_fault_ns += self.costs.vm_exit_fault_ns
        if self.audit_hook is not None:
            self.audit_hook.page_written(page_idx)
        if self.capture_hook is not None:
            self.capture_hook.page_written(page_idx, token)
        self.pages_written += 1
        self.pages[page_idx] = token

    def read(self, page_idx: int) -> bytes:
        self.find_vma(page_idx)
        try:
            return self.pages[page_idx]
        except KeyError:
            # Untouched page: reads as zeros (demand-zero semantics).
            return b""

    def drain_fault_time(self) -> int:
        """Return accrued fault time in whole microseconds (charged by the
        caller as simulated time); the sub-microsecond remainder carries
        over so no fault cost is ever lost to rounding."""
        accrued_us, self.pending_fault_ns = divmod(self.pending_fault_ns, 1000)
        return accrued_us

    # -- dirty tracking (clear_refs / pagemap) -----------------------------
    def start_tracking(self, mode: Literal["soft_dirty", "wrprotect"] = "soft_dirty") -> None:
        """Begin dirty tracking (the first ``clear_refs`` write)."""
        self._tracking = _TrackingState(enabled=True, mode=mode)
        if self.audit_hook is not None:
            self.audit_hook.tracking_started()

    def clear_refs(self) -> None:
        """Reset dirty bits; every page write-faults again on next touch."""
        if not self._tracking.enabled:
            raise AddressError(f"{self.name}: clear_refs before start_tracking")
        self._tracking.dirty.clear()
        self._tracking.faults = 0
        if self.audit_hook is not None:
            self.audit_hook.refs_cleared()

    @property
    def tracking_enabled(self) -> bool:
        return self._tracking.enabled

    @property
    def tracking_mode(self) -> str:
        return self._tracking.mode

    def dirty_pages(self) -> tuple[int, ...]:
        """The pagemap soft-dirty view: pages written since clear_refs.

        Returned as a sorted tuple — pagemap is read in address order, and
        callers iterate this to build checkpoint images, so the order must
        not depend on set hashing.
        """
        if not self._tracking.enabled:
            raise AddressError(f"{self.name}: pagemap read before start_tracking")
        return tuple(sorted(self._tracking.dirty))  # nlint: disable=PERF003 -- pagemap is read in address order by contract; the sort IS the semantics

    @property
    def resident_count(self) -> int:
        return len(self.pages)

    @property
    def resident_bytes(self) -> int:
        return len(self.pages) * PAGE_SIZE

    # -- checkpoint support --------------------------------------------------
    def snapshot_pages(self, indices: Iterable[int]) -> dict[int, bytes]:  # hot: per-page -- parasite copies every dirty page through here
        """Copy the content tokens of *indices* (missing pages read as b'')."""
        snapshot = {idx: self.pages.get(idx, b"") for idx in indices}
        self.pages_snapshotted += len(snapshot)
        return snapshot

    def full_snapshot(self) -> dict[int, bytes]:
        """All resident page contents (used for full checkpoints/oracles)."""
        return dict(self.pages)

    def restore_pages(self, contents: dict[int, bytes]) -> None:
        """Overwrite page contents during restore (no fault accounting)."""
        for idx, token in contents.items():
            self.find_vma(idx)
            if token == b"":
                self.pages.pop(idx, None)
            else:
                self.pages[idx] = token

    def describe_vmas(self) -> list[dict]:
        return [vma.describe() for vma in self.vmas]
