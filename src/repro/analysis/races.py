"""Dynamic happens-before race detection for the simulation (nraces).

The engine's only ordering guarantee for same-timestamp events is the
insertion-sequence tie-break, so any pair of causally-unordered conflicting
accesses at the same virtual time is a latent heisenbug: a benign-looking
refactor (or the tie-break fuzzer in :mod:`repro.analysis.fuzz`) can flip
their order and change protocol behavior.  This module makes that class of
bug *observable* instead of discoverable-by-sweep.

Model
-----

Every simulation :class:`~repro.sim.engine.Process` is a *task* with a
vector clock.  Happens-before edges come from the event graph itself:

* **schedule** — an event captures the scheduling context's clock
  (``Event._vc``) in :meth:`Engine._schedule`; this covers ``succeed`` /
  ``fail`` cross-process triggers, timeouts, spawn (``Initialize``) and
  :meth:`Process.interrupt` (the interrupt's failure event carries the
  interrupter's clock).
* **resume** — a process joins the clock of the event that resumed it and
  increments its own component.  Link delivery is a chain of these edges
  (send -> timer event -> ``rx.put`` -> receiver resume).
* **conditions** — an ``AnyOf`` folds the clock of the constituent that
  triggered it into the condition event, so its waiter happens-after it.

Protocol code reports accesses to shared structures via
:func:`repro.sim.access.record_access`.  Two checks run over them:

* **same-time conflicts** — a ``w/w`` or ``r/w`` pair at the same virtual
  microsecond with no happens-before edge (tie-break-order dependent).
* **ordering obligations** (kind ``"r+"``) — the access requires a prior
  happens-before-ordered write to the same field at *any* time; e.g.
  releasing epoch *e*'s output barrier demands the backup's commit of
  epoch *e* happen-before it.  A missing or unordered write is a finding
  — this is exactly how the ``unsafe_ack_before_commit`` and
  ``unsafe_release_oldest_barrier`` regressions surface.

The :data:`TRACKED_STATE` registry declares, per module, which logical
fields that module mutates; :func:`verify_access_coverage` walks the ASTs
(fault-point style) to prove each declared field really has a ``"w"``
record on its mutating path and that no call site uses an undeclared
field.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Any, Hashable, Mapping

from repro.analysis.inventory import load_sources, parse_each
from repro.sim.engine import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine, Event, Process

__all__ = [
    "RaceDetector",
    "RaceFinding",
    "TRACKED_STATE",
    "install_detector",
    "recorded_fields",
    "verify_access_coverage",
]

# --------------------------------------------------------------------------- #
# Vector clocks                                                               #
# --------------------------------------------------------------------------- #
# Clocks are plain dicts {task_id: counter}; missing component == 0.


def _join(into: dict[int, int], other: dict[int, int]) -> None:
    for task, counter in other.items():
        if counter > into.get(task, 0):
            into[task] = counter


class _Ctx:
    """One execution context: a process, or one event's callback batch."""

    __slots__ = ("clock", "task", "label")

    def __init__(self, clock: dict[int, int], task: int | None, label: str) -> None:
        self.clock = clock
        self.task = task
        self.label = label


class _Access:
    """One recorded access, with the clock snapshot that ordered it."""

    __slots__ = ("kind", "task", "name", "site", "at", "clock")

    def __init__(
        self, kind: str, task: int, name: str, site: str, at: int, clock: dict[int, int]
    ) -> None:
        self.kind = kind
        self.task = task
        self.name = name
        self.site = site
        self.at = at
        self.clock = clock


@dataclass(frozen=True)
class RaceFinding:
    """One detected ordering violation."""

    #: "same-time-conflict" | "unordered-ordered-read" |
    #: "missing-write-for-ordered-read" | "write-after-unordered-read"
    check: str
    label: str
    field: str
    key: Any
    at_us: int
    message: str
    #: (kind, task name, site) of each participant; one entry for the
    #: single-sided missing-write finding.
    accesses: tuple[tuple[str, str, str], ...] = dc_field(default=())

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "label": self.label,
            "field": self.field,
            "key": self.key,
            "at_us": self.at_us,
            "message": self.message,
            "accesses": [list(a) for a in self.accesses],
        }

    def __str__(self) -> str:
        return f"[{self.at_us / 1000:10.3f} ms] {self.check}: {self.message}"


#: Empty clock shared by contexts that never materialize a task component.
_EMPTY_CLOCK: dict[int, int] = {}

#: Cap on remembered writes/ordered-reads per (label, field, key).
_HISTORY = 4


class RaceDetector(Observer):
    """Happens-before bookkeeping plus conflict/ordering checks.

    An engine :class:`~repro.sim.engine.Observer`: install with
    :func:`install_detector`; every engine hook then feeds it.
    All state is per-run; create a fresh detector per simulation.
    """

    def __init__(self, engine: "Engine", max_findings: int = 200) -> None:
        self.engine = engine
        self.findings: list[RaceFinding] = []
        self.dropped_findings = 0
        self.accesses_recorded = 0
        self._max = max_findings

        self._names: list[str] = ["<setup>"]
        self._used_names: set[str] = {"<setup>"}
        self._main = _Ctx({0: 1}, 0, "<setup>")
        self._ctx: _Ctx = self._main
        self._stack: list[_Ctx] = []
        self._proc_ctx: dict[Any, _Ctx] = {}
        self._cond_joins: dict[Any, dict[int, int]] = {}
        self._labels: dict[Any, str] = {}
        self._label_counts: dict[str, int] = {}

        # (label, field, key) -> accesses at the current timestamp.
        self._window: dict[tuple, list[_Access]] = {}
        self._window_at = -1
        # (label, field, key) -> recent writes / ordered reads (any time).
        self._writes: dict[tuple, list[_Access]] = {}
        self._ordered_reads: dict[tuple, list[_Access]] = {}
        self._seen: set[tuple] = set()

    # -- observer hooks --------------------------------------------------- #
    def on_scheduled(self, event: "Event") -> None:
        """Capture the scheduling context's clock on the event."""
        ctx = self._ctx
        pending = self._cond_joins.pop(event, None)
        if ctx.task is None and pending is None:
            # Lazy event context that never recorded an access: its clock
            # is immutable, so the reference can be shared.
            event._vc = ctx.clock
            return
        clock = dict(ctx.clock)
        if pending is not None:
            _join(clock, pending)
        event._vc = clock

    def on_event_begin(self, event: "Event") -> None:
        self._stack.append(self._ctx)
        base = event._vc
        self._ctx = _Ctx(
            base if base is not None else _EMPTY_CLOCK,
            None,
            f"event:{type(event).__name__}",
        )

    def on_event_end(self, event: "Event") -> None:
        if self._stack:
            self._ctx = self._stack.pop()
        else:  # pragma: no cover - detector installed mid-step
            self._ctx = self._main

    def on_resume(self, process: "Process", event: "Event") -> None:
        ctx = self._proc_ctx.get(process)
        if ctx is None:
            name = process.name or "process"
            if name in self._used_names:
                name = f"{name}#{len(self._names)}"
            self._used_names.add(name)
            task = len(self._names)
            self._names.append(name)
            ctx = _Ctx({task: 0}, task, name)
            self._proc_ctx[process] = ctx
        if event._vc:
            _join(ctx.clock, event._vc)
        ctx.clock[ctx.task] += 1
        self._stack.append(self._ctx)
        self._ctx = ctx

    def on_resume_end(self, process: "Process") -> None:
        if self._stack:
            self._ctx = self._stack.pop()
        else:  # pragma: no cover - detector installed mid-step
            self._ctx = self._main

    def on_consume(self, process: "Process", event: "Event") -> None:
        """The process consumed an already-processed event inline."""
        if event._vc:
            _join(self._ctx.clock, event._vc)

    def on_condition_join(self, condition: "Event", event: "Event") -> None:
        """Fold a constituent's clock into the pending condition clock."""
        pending = self._cond_joins.get(condition)
        if pending is None:
            pending = self._cond_joins[condition] = {}
        _join(pending, self._ctx.clock)
        if event._vc:
            _join(pending, event._vc)

    # -- access recording -------------------------------------------------- #
    def on_access(
        self, obj: Any, field: str, kind: str, key: Hashable, site: str
    ) -> None:
        self.accesses_recorded += 1
        ctx = self._ctx
        if ctx.task is None:
            ctx = self._materialize(ctx)
        label = obj if isinstance(obj, str) else self._label_of(obj)
        k = (label, field, key)
        now = self.engine._now
        access = _Access(kind, ctx.task, ctx.label, site, now, dict(ctx.clock))

        # Same-timestamp conflict check (any pair involving a write).
        if now != self._window_at:
            self._window.clear()
            self._window_at = now
        prior_here = self._window.get(k)
        if prior_here:
            for prior in prior_here:
                if prior.kind != "w" and kind != "w":
                    continue
                if prior.task == access.task:
                    continue
                if self._ordered(prior, access):
                    continue
                self._report(
                    "same-time-conflict", k, access,
                    f"unordered {prior.kind}/{kind} on {self._fmt(k)} at "
                    f"t={now}us: {prior.name} at {prior.site or '?'} vs "
                    f"{access.name} at {access.site or '?'} — order is "
                    f"tie-break dependent",
                    (prior, access),
                )
            prior_here.append(access)
        else:
            self._window[k] = [access]

        # Ordering-obligation checks (any timestamp).
        if kind == "w":
            reads = self._ordered_reads.get(k)
            if reads:
                for read in reads:
                    if read.task != access.task and not self._ordered(read, access):
                        self._report(
                            "write-after-unordered-read", k, access,
                            f"write to {self._fmt(k)} by {access.name} at "
                            f"{access.site or '?'} has no happens-before "
                            f"edge to the ordered read by {read.name} at "
                            f"{read.site or '?'} (t={read.at}us) that "
                            f"required it",
                            (read, access),
                        )
            history = self._writes.setdefault(k, [])
            history.append(access)
            if len(history) > _HISTORY:
                del history[0]
        elif kind == "r+":
            writes = self._writes.get(k)
            if not writes:
                self._report(
                    "missing-write-for-ordered-read", k, access,
                    f"ordered read of {self._fmt(k)} by {access.name} at "
                    f"{access.site or '?'} but no write to it has happened "
                    f"at all (t={now}us)",
                    (access,),
                )
            elif not any(
                w.task == access.task or self._ordered(w, access) for w in writes
            ):
                last = writes[-1]
                self._report(
                    "unordered-ordered-read", k, access,
                    f"ordered read of {self._fmt(k)} by {access.name} at "
                    f"{access.site or '?'} is not happens-after the write "
                    f"by {last.name} at {last.site or '?'} (t={last.at}us)",
                    (last, access),
                )
            history = self._ordered_reads.setdefault(k, [])
            history.append(access)
            if len(history) > _HISTORY:
                del history[0]

    # -- reporting --------------------------------------------------------- #
    def report(self) -> dict:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "count": len(self.findings),
            "dropped_findings": self.dropped_findings,
            "accesses_recorded": self.accesses_recorded,
            "tasks": list(self._names),
        }

    # -- internals --------------------------------------------------------- #
    @staticmethod
    def _ordered(prior: _Access, access: _Access) -> bool:
        """True if *prior* happens-before *access*."""
        return prior.clock.get(prior.task, 0) <= access.clock.get(prior.task, 0)

    def _materialize(self, ctx: _Ctx) -> _Ctx:
        """Give a lazy event context its own clock component on first use."""
        task = len(self._names)
        self._names.append(ctx.label)
        clock = dict(ctx.clock)
        clock[task] = 1
        ctx.clock = clock
        ctx.task = task
        return ctx

    def _label_of(self, obj: Any) -> str:
        try:
            label = self._labels.get(obj)
        except TypeError:  # unhashable object
            return type(obj).__name__
        if label is None:
            base = type(obj).__name__
            n = self._label_counts.get(base, 0)
            self._label_counts[base] = n + 1
            label = base if n == 0 else f"{base}#{n + 1}"
            self._labels[obj] = label
        return label

    @staticmethod
    def _fmt(k: tuple) -> str:
        label, field, key = k
        return f"{label}.{field}" + (f"[{key}]" if key is not None else "")

    def _report(
        self,
        check: str,
        k: tuple,
        access: _Access,
        message: str,
        accesses: tuple[_Access, ...],
    ) -> None:
        label, field, key = k
        # Deduplicate on everything except the key (epoch/page id), so one
        # broken protocol path yields one finding, not one per epoch.
        dedup = (check, label, field) + tuple(
            (a.kind, a.name, a.site) for a in accesses
        )
        if dedup in self._seen:
            self.dropped_findings += 1
            return
        if len(self.findings) >= self._max:
            self.dropped_findings += 1
            return
        self._seen.add(dedup)
        self.findings.append(
            RaceFinding(
                check=check,
                label=label,
                field=field,
                key=key,
                at_us=access.at,
                message=message,
                accesses=tuple((a.kind, a.name, a.site) for a in accesses),
            )
        )


def install_detector(engine: "Engine", max_findings: int = 200) -> RaceDetector:
    """Attach a fresh :class:`RaceDetector` to *engine*; returns it.  Remove
    it with ``engine.observe(None)``."""
    return engine.observe(RaceDetector(engine, max_findings=max_findings))


# --------------------------------------------------------------------------- #
# Tracked-state registry + AST coverage check (fault-point style)             #
# --------------------------------------------------------------------------- #

#: module path suffix -> logical fields that module *mutates* (records a
#: ``"w"`` access for).  The single source of truth for the coverage check:
#: a module that grows new shared state must declare it here, and the AST
#: check proves every declared field has a real ``record_access(..., "w")``
#: site in that module (and that no site uses an undeclared field).
TRACKED_STATE: dict[str, tuple[str, ...]] = {
    # Egress-plug barriers (insert + drain) live in the netbuffer; it also
    # asserts the ordering obligation on the durability ledger at release.
    "replication/netbuffer.py": ("egress_barrier",),
    # The ack listener publishes the acked epoch and pops receipt events
    # that the epoch loop registers.
    "replication/primary.py": ("acked_epoch", "receipt_events"),
    # The commit path owns the durability ledger, the committed-epoch
    # watermark, the out-of-order epoch stash and the page store's open
    # checkpoint.
    "replication/backup.py": (
        "epoch_commit",
        "committed_epoch",
        "epoch_stash",
        "open_checkpoint",
        # Dispatch-maintained per-epoch mirrored-write counter, popped by
        # the commit path (the incremental replacement for rescanning the
        # drbd buffers).
        "epoch_disk_writes",
    ),
    # HyCoR log shipping: the durable-flush ledger (log_commit barriers
    # drain against it) and the backup's stored-flush window, written by
    # the dispatch loop, the commit-supersede path and failover replay.
    "replication/hycor.py": ("log_commit", "log_store"),
    # Heartbeat arrivals vs the detector's windowed miss check.
    "replication/heartbeat.py": ("heartbeat_window",),
    # Per-epoch buffered mirrored writes on the backup disk.
    "replication/drbd.py": ("disk_pending",),
    # Fleet slot bookkeeping: allocate/release/promote/commit vs the
    # placement policy's load reads during concurrent re-protections.
    "fleet/pool.py": ("pool_slots",),
    # Member lifecycle state: written by the control loop *and* by
    # migration processes.
    "fleet/controller.py": ("member_state",),
}


def recorded_fields(
    overrides: Mapping[str, str] | None = None,
) -> dict[str, set[tuple[str, str]]]:
    """``module suffix -> {(field, kind)}`` for every ``record_access``
    call with a string-literal field in the package sources (AST-based, so
    comments and docstrings don't count).  *overrides* replaces or adds
    sources as in :func:`~repro.analysis.inventory.load_sources`."""
    found: dict[str, set[tuple[str, str]]] = {}
    for path, _, tree in parse_each(load_sources(("",), overrides)):
        suffix = "/".join(path.split("/")[-2:])
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "record_access" or len(node.args) < 4:
                continue
            field_arg, kind_arg = node.args[2], node.args[3]
            if not (isinstance(field_arg, ast.Constant) and isinstance(field_arg.value, str)):
                continue
            kind = kind_arg.value if isinstance(kind_arg, ast.Constant) else "?"
            found.setdefault(suffix, set()).add((field_arg.value, str(kind)))
    return found


def verify_access_coverage(
    overrides: Mapping[str, str] | None = None,
) -> list[str]:
    """Cross-check :data:`TRACKED_STATE` against real call sites.

    Returns a list of problems (empty = every declared field is written via
    ``record_access`` in its declaring module, and every call site in a
    declaring module uses a declared field).  The sources are the installed
    package's, whatever the working directory.
    """
    found = recorded_fields(overrides)
    all_declared = {f for fields in TRACKED_STATE.values() for f in fields}
    problems: list[str] = []
    for module, fields in sorted(TRACKED_STATE.items()):
        calls: set[tuple[str, str]] = set()
        for suffix, entries in found.items():
            if suffix == module:
                calls |= entries
        if not calls:
            problems.append(
                f"{module}: declares tracked state but has no record_access sites"
            )
            continue
        written = {f for f, kind in calls if kind == "w"}
        for field in sorted(set(fields) - written):
            problems.append(
                f"{module}: declared tracked field {field!r} has no "
                f"record_access(..., 'w') site on its mutating path"
            )
    # Reads of another module's field are fine; a field declared nowhere is
    # a typo or undeclared shared state.
    for suffix, entries in sorted(found.items()):
        for field, _kind in sorted(entries):
            if field not in all_declared:
                problems.append(
                    f"{suffix}: record_access site uses undeclared field {field!r}"
                )
    return problems
