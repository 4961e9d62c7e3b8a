"""Runtime state auditor: kernel invariant checks at epoch boundaries.

The linter (:mod:`repro.analysis.rules`) catches *code* that could break
determinism; this module catches *state* that already has.  A
:class:`StateAuditor` attaches shadow bookkeeping to a container's address
spaces and, when invoked at an epoch boundary (primary: frozen, input
blocked, pre-collection) or after a restore (backup: post-rebuild), verifies
the invariants the checkpoint protocol silently relies on:

* **soft-dirty** — the ``pagemap`` dirty view matches the writes that
  actually happened (an independently maintained shadow set);
* **tcp** — sequence arithmetic: ``snd_una <= snd_nxt``, the write queue is
  contiguous from ``snd_una`` and accounts for exactly the unacked bytes
  (plus the FIN's sequence slot in FIN_WAIT);
* **dnc** — page-cache entries reference live inodes and lie within file
  bounds; disk blocks are owned by at most one (inode, page);
* **fd** — fd-table keys match entries, stay below the allocation cursor,
  and point at live kernel objects;
* **vma** — the VMA list is sorted and overlap-free, and every resident or
  dirty page is inside some VMA.

Failures raise :class:`InvariantViolation` carrying structured
:class:`Violation` records with an expected/actual diff, so a failing
property test or epoch loop pinpoints *which* bookkeeping diverged, not just
that a checkpoint later came out wrong.

Auditing is toggleable (``NiliconConfig.audit``) and free when off: the
address-space hook is ``None`` and every check is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.kernel.blockdev import BLOCK_SIZE
from repro.kernel.tcp import TcpState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.container.runtime import Container
    from repro.kernel.mm import AddressSpace

__all__ = ["InvariantViolation", "StateAuditor", "Violation"]


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough structure to diff."""

    invariant: str  #: e.g. "soft_dirty", "tcp", "dnc", "fd", "vma"
    subject: str  #: which object broke (address space / socket / fs name)
    message: str
    expected: Any = None
    actual: Any = None

    def diff(self) -> str:
        """Human-readable expected/actual delta."""
        if isinstance(self.expected, (set, frozenset)) and isinstance(
            self.actual, (set, frozenset)
        ):
            missing = sorted(self.expected - self.actual)
            spurious = sorted(self.actual - self.expected)
            parts = []
            if missing:
                parts.append(f"missing={missing}")
            if spurious:
                parts.append(f"spurious={spurious}")
            return " ".join(parts) or "(sets equal)"
        return f"expected={self.expected!r} actual={self.actual!r}"

    def render(self) -> str:
        return f"[{self.invariant}] {self.subject}: {self.message} ({self.diff()})"


class InvariantViolation(Exception):
    """Raised by the auditor; carries every violation found in the sweep."""

    def __init__(self, violations: list[Violation], when: str) -> None:
        self.violations = violations
        self.when = when  #: "epoch" or "restore"
        lines = "\n  ".join(v.render() for v in violations)
        super().__init__(
            f"{len(violations)} invariant violation(s) at {when} boundary:\n  {lines}"
        )


class _MemShadow:
    """Independent record of page writes, attached as ``mm.audit_hook``.

    :class:`~repro.kernel.mm.AddressSpace` notifies the hook on every write,
    ``clear_refs``, ``start_tracking`` and ``munmap``.  The shadow replays
    the *semantics* of soft-dirty tracking through a separate code path, so
    any divergence between the two — a lost dirty bit, a stale one — is a
    real bookkeeping bug, not a tautology.
    """

    def __init__(self, mm: "AddressSpace") -> None:
        self.written: set[int] = set()
        self.tracking = mm.tracking_enabled
        if self.tracking:
            # Attached mid-run: adopt the current view once, then diverge
            # only if the kernel's bookkeeping does.
            self.written = set(mm.dirty_pages())

    def tracking_started(self) -> None:
        self.tracking = True
        self.written = set()

    def refs_cleared(self) -> None:
        self.written = set()

    def page_written(self, page_idx: int) -> None:
        if self.tracking:
            self.written.add(page_idx)

    def page_unmapped(self, page_idx: int) -> None:
        self.written.discard(page_idx)


class StateAuditor:
    """Invariant sweeps over a container's kernel state.

    Create one per deployment, :meth:`attach_container` it to the protected
    container, then call :meth:`audit_epoch` at each checkpoint boundary and
    :meth:`audit_restore` after each restore.  With
    ``raise_on_violation=False`` the auditor records violations in
    :attr:`violations` instead of raising (used by tests that assert on the
    structured records).
    """

    def __init__(self, raise_on_violation: bool = True) -> None:
        self.raise_on_violation = raise_on_violation
        self.epochs_audited = 0
        self.restores_audited = 0
        self.violations: list[Violation] = []

    # -- attachment --------------------------------------------------------
    def attach_container(self, container: "Container") -> None:
        """Install shadow write-observers on every address space."""
        for process in container.processes:
            self.attach_address_space(process.mm)

    def attach_address_space(self, mm: "AddressSpace") -> None:
        if mm.audit_hook is None:
            mm.audit_hook = _MemShadow(mm)

    # -- entry points ------------------------------------------------------
    def audit_epoch(self, container: "Container") -> list[Violation]:
        """Full sweep at a checkpoint boundary (container frozen)."""
        found = self._sweep(container)
        self.epochs_audited += 1
        return self._finish(found, "epoch")

    def audit_restore(self, container: "Container") -> list[Violation]:
        """Full sweep over a freshly restored container (backup side)."""
        self.attach_container(container)  # restored mms are new objects
        found = self._sweep(container)
        self.restores_audited += 1
        return self._finish(found, "restore")

    def _finish(self, found: list[Violation], when: str) -> list[Violation]:
        self.violations.extend(found)
        if found and self.raise_on_violation:
            raise InvariantViolation(found, when)
        return found

    # -- the sweep ---------------------------------------------------------
    def _sweep(self, container: "Container") -> list[Violation]:
        found: list[Violation] = []
        for process in container.processes:
            found.extend(self._check_memory(process.mm))
            found.extend(self._check_fds(process))
        found.extend(self._check_tcp(container.stack))
        for fs in container.mounted_filesystems():
            found.extend(self._check_dnc(fs))
        return found

    # -- memory / soft-dirty ----------------------------------------------
    def _check_memory(self, mm: "AddressSpace") -> list[Violation]:
        found: list[Violation] = []

        # VMA list: sorted, no overlaps.
        vmas = mm.vmas
        for prev, cur in zip(vmas, vmas[1:]):
            if cur.start < prev.start:
                found.append(
                    Violation(
                        invariant="vma",
                        subject=mm.name,
                        message="VMA list not sorted by start page",
                        expected=f"start >= {prev.start}",
                        actual=cur.start,
                    )
                )
            if prev.overlaps(cur):
                found.append(
                    Violation(
                        invariant="vma",
                        subject=mm.name,
                        message=(
                            f"VMAs overlap: [{prev.start},{prev.end}) and "
                            f"[{cur.start},{cur.end})"
                        ),
                    )
                )

        # The find_vma index and the kept heap are derived from the list.
        starts = [vma.start for vma in vmas]
        if mm.vma_starts != starts:
            found.append(
                Violation(
                    invariant="vma",
                    subject=mm.name,
                    message="VMA start index disagrees with the VMA list",
                    expected=starts,
                    actual=list(mm.vma_starts),
                )
            )
        heap = next((vma for vma in vmas if vma.kind == "heap"), None)
        if mm.heap_vma is not heap:
            found.append(
                Violation(
                    invariant="vma",
                    subject=mm.name,
                    message="kept heap VMA is not the first heap mapping",
                    expected=heap,
                    actual=mm.heap_vma,
                )
            )

        # Every resident page must be inside some VMA.
        mapped = set()
        for vma in vmas:
            mapped.update(range(vma.start, vma.end))
        stray = set(mm.pages) - mapped
        if stray:
            found.append(
                Violation(
                    invariant="vma",
                    subject=mm.name,
                    message="resident pages outside every VMA",
                    expected=set(),
                    actual=stray,
                )
            )

        if mm.tracking_enabled:
            kernel_view = set(mm.dirty_pages())
            # Dirty pages must be mapped (munmap must drop their bits).
            unmapped_dirty = kernel_view - mapped
            if unmapped_dirty:
                found.append(
                    Violation(
                        invariant="soft_dirty",
                        subject=mm.name,
                        message="dirty bits set on unmapped pages",
                        expected=set(),
                        actual=unmapped_dirty,
                    )
                )
            shadow = mm.audit_hook
            if isinstance(shadow, _MemShadow) and shadow.tracking:
                if shadow.written != kernel_view:
                    found.append(
                        Violation(
                            invariant="soft_dirty",
                            subject=mm.name,
                            message=(
                                "pagemap dirty view disagrees with observed "
                                "writes since clear_refs"
                            ),
                            expected=set(shadow.written),
                            actual=kernel_view,
                        )
                    )
        return found

    # -- fd table ----------------------------------------------------------
    def _check_fds(self, process: Any) -> list[Violation]:
        found: list[Violation] = []
        for fd, entry in sorted(process.fds.items()):
            subject = f"{process.comm}/fd{fd}"
            if entry.fd != fd:
                found.append(
                    Violation(
                        invariant="fd",
                        subject=subject,
                        message="fd-table key disagrees with entry.fd",
                        expected=fd,
                        actual=entry.fd,
                    )
                )
            if not 0 <= fd < process._next_fd:
                found.append(
                    Violation(
                        invariant="fd",
                        subject=subject,
                        message="fd outside the allocated range",
                        expected=f"0 <= fd < {process._next_fd}",
                        actual=fd,
                    )
                )
            if entry.obj is None:
                found.append(
                    Violation(
                        invariant="fd",
                        subject=subject,
                        message=f"{entry.kind} fd points at no kernel object",
                        expected="live object",
                        actual=None,
                    )
                )
        return found

    # -- tcp ---------------------------------------------------------------
    _TCP_AUDITED_STATES = (
        TcpState.ESTABLISHED,
        TcpState.PEER_CLOSED,
        TcpState.FIN_WAIT,
    )

    def _check_tcp(self, stack: Any) -> list[Violation]:
        found: list[Violation] = []
        for key in sorted(stack.connections):
            sock = stack.connections[key]
            if sock.state not in self._TCP_AUDITED_STATES:
                continue
            subject = f"{stack.name} {key[0]}:{key[1]}->{key[2]}:{key[3]}"
            if sock.snd_una > sock.snd_nxt:
                found.append(
                    Violation(
                        invariant="tcp",
                        subject=subject,
                        message="snd_una ahead of snd_nxt",
                        expected=f"snd_una <= {sock.snd_nxt}",
                        actual=sock.snd_una,
                    )
                )
                continue  # downstream arithmetic would be noise
            queue = list(sock.write_queue)
            queue_bytes = sum(len(payload) for _, payload in queue)
            if queue:
                if queue[0][0] != sock.snd_una:
                    found.append(
                        Violation(
                            invariant="tcp",
                            subject=subject,
                            message="write queue head does not start at snd_una",
                            expected=sock.snd_una,
                            actual=queue[0][0],
                        )
                    )
                for (seq_a, pay_a), (seq_b, _) in zip(queue, queue[1:]):
                    if seq_a + len(pay_a) != seq_b:
                        found.append(
                            Violation(
                                invariant="tcp",
                                subject=subject,
                                message="write queue has a sequence gap",
                                expected=seq_a + len(pay_a),
                                actual=seq_b,
                            )
                        )
            unacked = sock.snd_nxt - sock.snd_una
            # In FIN_WAIT the FIN consumed one sequence number that never
            # enters the write queue; until it is acked the gap runs one
            # past the queued bytes.
            allowed = {unacked}
            if sock.state is TcpState.FIN_WAIT:
                allowed.add(unacked - 1)
            if queue_bytes not in allowed:
                found.append(
                    Violation(
                        invariant="tcp",
                        subject=subject,
                        message=(
                            "unacked byte span disagrees with queued payload "
                            f"(state={sock.state.value})"
                        ),
                        expected=sorted(allowed),
                        actual=queue_bytes,
                    )
                )
        return found

    # -- DNC page cache ----------------------------------------------------
    def _check_dnc(self, fs: Any) -> list[Violation]:
        found: list[Violation] = []
        live_inodes = {inode.ino: inode for inode in fs._inodes.values()}
        for ino, page_idx in sorted(fs._cache):
            inode = live_inodes.get(ino)
            subject = f"{fs.name} ino={ino} page={page_idx}"
            if inode is None:
                found.append(
                    Violation(
                        invariant="dnc",
                        subject=subject,
                        message="page-cache entry for a dead inode",
                        expected="live inode",
                        actual=None,
                    )
                )
                continue
            if inode.size == 0:
                found.append(
                    Violation(
                        invariant="dnc",
                        subject=subject,
                        message=f"cached page for empty file {inode.path}",
                        expected="no pages",
                        actual=page_idx,
                    )
                )
            elif page_idx * BLOCK_SIZE >= inode.size:
                found.append(
                    Violation(
                        invariant="dnc",
                        subject=subject,
                        message=(
                            f"cached page past EOF of {inode.path} "
                            "(truncate must invalidate + tombstone)"
                        ),
                        expected=f"page_idx*{BLOCK_SIZE} < {inode.size}",
                        actual=page_idx * BLOCK_SIZE,
                    )
                )
        # A disk block belongs to at most one (inode, page).
        owners: dict[int, tuple[str, int]] = {}
        for path in fs.paths():
            inode = fs.lookup(path)
            for page_idx in sorted(inode.block_map):
                block = inode.block_map[page_idx]
                prior = owners.get(block)
                if prior is not None:
                    found.append(
                        Violation(
                            invariant="dnc",
                            subject=f"{fs.name} block={block}",
                            message="disk block mapped by two pages",
                            expected=prior,
                            actual=(path, page_idx),
                        )
                    )
                else:
                    owners[block] = (path, page_idx)
        return found
