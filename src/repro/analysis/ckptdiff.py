"""Layer 3 of the checkpoint state-coverage analyzer: the differential oracle.

The static pass (:mod:`repro.analysis.coverage`) proves *name-level*
coverage: every checkpoint-relevant field is read somewhere in the dump
closure and written somewhere in the restore closure.  Name matching
over-approximates, so this module provides the semantic backstop: run a
real workload from the catalog, freeze it mid-run, take one full
checkpoint, restore it into the *backup* host's pristine kernel, and
structurally deep-compare the frozen original against the restored clone
— field by field, guided by the same Layer-1 inventory.

The comparison skips exactly what the inventory says to skip (``derived``
/ ``ephemeral`` annotations, ``__ckpt_ignore__``), so the two layers
cross-check each other:

* a diff on a field the static pass calls **covered** is an analyzer bug
  (the name-based closure was fooled, or a restore path is wrong);
* a diff on a field it calls **uncovered** is a *confirmed* CKPT101 — the
  gap is real and observable, not a static false positive.

The oracle needs no replication machinery: with no prior ``fgetfc`` every
written fs-cache page still carries its DNC bit and the simulated cache
never evicts, so one full checkpoint captures the complete logical state
(memory, threads, sockets in repair mode, namespaces/cgroup, fs cache).
Host-local identity is canonicalized before comparing: fs-cache keys are
rekeyed from ``(ino, page)`` to ``(path, page)``, and sockets pair by
connection 4-tuple via the stack's own maps.

Input is blocked (ingress plug) before the freeze, exactly as failover
and live migration do (paper SSIII): otherwise packets arriving between
the socket dump and the comparison would mutate the original's TCP state
and show up as phantom diffs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.analysis.coverage import (
    Inventory,
    analyze_coverage,
    build_inventory,
    load_source_set,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container

__all__ = [
    "OracleResult",
    "StateDiff",
    "compare_containers",
    "run_oracle",
    "ORACLE_WORKLOADS",
    "SMOKE_WORKLOADS",
]

#: Catalog entries :func:`run_oracle_suite` cycles through by default.
#: One per workload family: compute (parsec), KV with persistence (fs
#: cache + heap), web (multi-process), echo (network stack), disk-rw.
ORACLE_WORKLOADS = ("swaptions", "ssdb", "lighttpd", "net-echo", "disk-rw")

#: ``repro ckptcov diff --smoke``; without ``--smoke`` it runs every
#: catalog workload.
SMOKE_WORKLOADS = ("ssdb", "net-echo")

#: The oracle freezes the live container here, mid client traffic (clients
#: run until ``CLIENT_RUN_US``).
FREEZE_AT_US = 150_000
CLIENT_RUN_US = 400_000

_MISSING = object()


@dataclass(frozen=True)
class StateDiff:
    """One field whose value diverged between original and restored clone."""

    cls_name: str
    field: str
    #: Dotted path from the comparison root (``stack.connections[...]...``).
    subject: str
    primary: str
    restored: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.cls_name, self.field)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"{self.cls_name}.{self.field} @ {self.subject}: "
            f"primary={self.primary} restored={self.restored}"
        )


@dataclass
class OracleResult:
    """Outcome of one checkpoint -> restore -> deep-compare run."""

    workload: str
    seed: int
    froze_at_us: int
    fields_compared: int
    diffs: list[StateDiff] = dc_field(default_factory=list)
    #: Diffs on fields the static pass already calls uncovered: the gap is
    #: real (a CKPT101 with a witness), not a static false positive.
    confirmed_gaps: list[StateDiff] = dc_field(default_factory=list)
    #: Diffs on fields the static pass calls covered: the analyzer (or a
    #: restore path) is wrong.  Always a failure.
    analyzer_bugs: list[StateDiff] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diffs

    def summary(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "froze_at_us": self.froze_at_us,
            "fields_compared": self.fields_compared,
            "diffs": len(self.diffs),
            "confirmed_gaps": [str(d) for d in self.confirmed_gaps],
            "analyzer_bugs": [str(d) for d in self.analyzer_bugs],
        }


# --------------------------------------------------------------------------- #
# Deep comparison                                                             #
# --------------------------------------------------------------------------- #


def _canon_fs_cache(fs: Any, cache: dict) -> dict:
    """Rekey ``(ino, page_idx)`` -> ``(path, page_idx)``: inode numbers are
    host-local allocator state, paths are the logical identity."""
    out = {}
    for (ino, page_idx), page in cache.items():
        try:
            path = fs._inode_by_ino(ino).path
        except Exception:
            path = f"<dangling ino {ino}>"
        out[(path, page_idx)] = page
    return out


def _canon_resident_pages(_mm: Any, pages: dict) -> dict:
    """Empty tokens are demand-zero holes; restore deliberately drops them
    (sparse restore), so both sides compare hole-free."""
    return {idx: tok for idx, tok in pages.items() if tok != b""}


#: (class, field) -> fn(owner, raw value) -> canonical value.  The *only*
#: place host-local identity is laundered; everything else compares raw.
_FIELD_CANON: dict[tuple[str, str], Callable[[Any, Any], Any]] = {
    ("FileSystem", "_cache"): _canon_fs_cache,
    ("AddressSpace", "pages"): _canon_resident_pages,
}


def _short(value: Any) -> str:
    if value is _MISSING:
        return "<missing>"
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


class _Comparator:
    def __init__(self, inventory: Inventory) -> None:
        self.inventory = inventory
        self.diffs: list[StateDiff] = []
        self.fields_compared = 0
        self._seen: set[tuple[int, int]] = set()

    # -- entry points ------------------------------------------------------
    def compare_object(self, subject: str, a: Any, b: Any) -> None:
        pair = (id(a), id(b))
        if pair in self._seen:
            return
        self._seen.add(pair)
        cls_info = self.inventory.by_name(type(a).__name__)
        if cls_info is None or cls_info.ignored or cls_info.exempt:
            return
        for field_info in sorted(cls_info.fields.values(), key=lambda f: f.name):
            if field_info.classification != "relevant":
                continue
            self.fields_compared += 1
            va = getattr(a, field_info.name, _MISSING)
            vb = getattr(b, field_info.name, _MISSING)
            canon = _FIELD_CANON.get((cls_info.name, field_info.name))
            if canon is not None:
                if va is not _MISSING:
                    va = canon(a, va)
                if vb is not _MISSING:
                    vb = canon(b, vb)
            self._compare_value(
                f"{subject}.{field_info.name}", cls_info.name, field_info.name,
                va, vb,
            )

    def diff(self, cls_name: str, field: str, subject: str, a: Any, b: Any) -> None:
        self.diffs.append(
            StateDiff(cls_name=cls_name, field=field, subject=subject,
                      primary=_short(a), restored=_short(b))
        )

    # -- value dispatch ----------------------------------------------------
    def _compare_value(
        self, subject: str, cls_name: str, field: str, a: Any, b: Any
    ) -> None:
        a, b = _normalize(a), _normalize(b)
        if a is _MISSING or b is _MISSING:
            if a is not b:
                self.diff(cls_name, field, subject, a, b)
            return

        # Inventoried kernel objects recurse; the diff (if any) is then
        # attributed to the *inner* class/field, which is what maps back to
        # the static pass's (class, field) coverage verdicts.
        inner_a = self.inventory.by_name(type(a).__name__)
        inner_b = self.inventory.by_name(type(b).__name__)
        if inner_a is not None or inner_b is not None:
            if type(a).__name__ != type(b).__name__:
                self.diff(cls_name, field, subject,
                          type(a).__name__, type(b).__name__)
                return
            self.compare_object(subject, a, b)
            return

        if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
            if len(a) != len(b):
                self.diff(cls_name, field, subject,
                          f"len {len(a)}", f"len {len(b)}")
                return
            for i, (ea, eb) in enumerate(zip(a, b)):
                self._compare_value(f"{subject}[{i}]", cls_name, field, ea, eb)
            return

        if isinstance(a, dict) and isinstance(b, dict):
            keys_a, keys_b = set(a), set(b)
            if keys_a != keys_b:
                only_a = sorted(keys_a - keys_b, key=repr)[:4]
                only_b = sorted(keys_b - keys_a, key=repr)[:4]
                self.diff(cls_name, field, subject,
                          f"+keys {only_a}", f"+keys {only_b}")
                return
            for key in sorted(keys_a, key=repr):
                self._compare_value(
                    f"{subject}[{key!r}]", cls_name, field, a[key], b[key]
                )
            return

        if isinstance(a, (set, frozenset)) and isinstance(b, (set, frozenset)):
            if set(a) != set(b):
                self.diff(cls_name, field, subject, a, b)
            return

        if a != b:
            self.diff(cls_name, field, subject, a, b)


def _normalize(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bytearray):
        return bytes(value)
    if isinstance(value, deque):
        return list(value)
    return value


def compare_containers(
    primary: "Container", restored: "Container", inventory: Inventory
) -> tuple[list[StateDiff], int]:
    """Deep-compare two containers' checkpoint-relevant state.

    Returns ``(diffs, fields_compared)``.  Structural mismatches at the
    container layout level (process/filesystem counts) are reported under
    the pseudo-class ``<layout>`` and always classify as analyzer bugs —
    the harness, not a field, diverged.
    """
    cmp = _Comparator(inventory)
    cmp.compare_object("namespaces", primary.namespaces, restored.namespaces)
    cmp.compare_object("cgroup", primary.cgroup, restored.cgroup)
    cmp.compare_object("stack", primary.stack, restored.stack)

    if len(primary.processes) != len(restored.processes):
        cmp.diff("<layout>", "processes", "processes",
                 f"count {len(primary.processes)}",
                 f"count {len(restored.processes)}")
    for i, (pa, pb) in enumerate(zip(primary.processes, restored.processes)):
        cmp.compare_object(f"processes[{i}:{pa.comm}]", pa, pb)

    fs_a = primary.mounted_filesystems()
    fs_b = restored.mounted_filesystems()
    if len(fs_a) != len(fs_b):
        cmp.diff("<layout>", "filesystems", "filesystems",
                 f"count {len(fs_a)}", f"count {len(fs_b)}")
    for fa, fb in zip(fs_a, fs_b):
        cmp.compare_object(f"fs[{fa.name}]", fa, fb)

    return cmp.diffs, cmp.fields_compared


# --------------------------------------------------------------------------- #
# The live harness                                                            #
# --------------------------------------------------------------------------- #


def run_oracle(
    workload_name: str,
    seed: int = 1,
    config: "Any | None" = None,
    static_uncovered: "set[tuple[str, str]] | None" = None,
    inventory: Inventory | None = None,
) -> OracleResult:
    """Checkpoint a live *workload_name* container, restore it on the
    backup host, deep-compare, and classify every diff against the static
    pass's coverage verdicts.

    *config* is the :class:`~repro.criu.config.CriuConfig` for both sides
    (tests pass ``unsafe_drop_dump`` knobs through it); *static_uncovered*
    overrides the ``(class, field)`` set used to split confirmed gaps from
    analyzer bugs (defaults to a fresh :func:`analyze_coverage` run).
    """
    # Imported here: the analysis package must stay importable without
    # dragging the whole simulator in for plain lint runs.
    from repro.baselines.stock import StockDeployment
    from repro.container.runtime import ContainerRuntime
    from repro.criu.checkpoint import CheckpointEngine
    from repro.criu.config import CriuConfig
    from repro.criu.restore import FullState, RestoreEngine
    from repro.net.world import World
    from repro.workloads.base import ClientStats, ServerWorkload
    from repro.workloads.catalog import make_workload

    criu_config = config if config is not None else CriuConfig.nilicon()
    world = World(seed=seed)
    workload = make_workload(workload_name)
    deployment = StockDeployment(world, workload.spec())
    container = deployment.container
    workload.warmup(world, container)
    workload.attach(world, container)
    deployment.start()

    stats = ClientStats()
    if isinstance(workload, ServerWorkload):

        def clients():
            yield world.engine.timeout(1_000)
            workload.start_clients(world, stats, run_until_us=CLIENT_RUN_US)

        world.engine.process(clients())

    outcome: dict[str, Any] = {}

    def probe():
        yield world.engine.timeout(FREEZE_AT_US)
        # Block input before freezing (SSIII): packets landing after the
        # socket dump would mutate the original mid-comparison.
        container.veth.ingress_plug.plug()
        yield world.engine.timeout(world.costs.plug_block)
        yield from container.freeze(poll=True)
        outcome["froze_at_us"] = world.engine.now

        engine = CheckpointEngine(world.primary.kernel, criu_config)
        image = yield from engine.checkpoint(container, incremental=False)

        # The backup kernel needs block devices for the spec's mounts
        # (DRBD's job in the real system; local disks suffice here since
        # the full fs cache travels in the image).
        for _mountpoint, fs_name in container.spec.mounts:
            if fs_name not in world.backup.kernel.filesystems:
                world.backup.kernel.add_block_device(f"oracle-{fs_name}")
                world.backup.kernel.mkfs(f"oracle-{fs_name}", fs_name)

        state = FullState(
            spec=container.spec,
            processes=[
                {
                    "comm": p.comm,
                    "vmas": p.vmas,
                    "pages": p.pages,
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
        runtime = ContainerRuntime(world.backup.kernel, world.bridge)
        restorer = RestoreEngine(world.backup.kernel, criu_config)
        restored = yield from restorer.restore(runtime, state)
        outcome["restored"] = restored

    proc = world.engine.process(probe())
    world.run(until=proc)
    restored = outcome["restored"]

    if inventory is None:
        inventory = build_inventory(load_source_set().inventory)
    if static_uncovered is None:
        static_uncovered = analyze_coverage().uncovered()

    diffs, fields_compared = compare_containers(container, restored, inventory)
    result = OracleResult(
        workload=workload_name,
        seed=seed,
        froze_at_us=outcome["froze_at_us"],
        fields_compared=fields_compared,
        diffs=diffs,
    )
    for diff in diffs:
        if diff.key in static_uncovered:
            result.confirmed_gaps.append(diff)
        else:
            result.analyzer_bugs.append(diff)
    return result


def run_oracle_suite(
    workloads: Iterable[str] = ORACLE_WORKLOADS, **kwargs: Any
) -> list[OracleResult]:
    """Run the oracle over several catalog workloads."""
    return [run_oracle(name, **kwargs) for name in workloads]
