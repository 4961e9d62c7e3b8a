"""Checkpoint state-coverage analyzer (``repro ckptcov``).

NiLiCon's correctness argument rests on CRIU capturing *all* relevant
in-kernel container state each epoch (paper §IV); the classic failure mode
of CRIU-based replication is a field that is mutated at runtime but
silently missing from the dump or restore path — the backup then diverges
only after failover, when it is too late.  This module statically answers
"is the checkpoint *complete*?" for the simulated kernel.

Three layers:

* **Layer 1 — inventory.**  An AST pass over ``src/repro/kernel/`` and
  ``src/repro/net/`` builds a field inventory of every state-bearing
  class: each ``self.X`` assignment site and each dataclass field,
  classified as checkpoint-relevant (default), derived/cache, or
  ephemeral via the annotation vocabulary below.
* **Layer 2 — cross-reference.**  A second AST pass over
  ``src/repro/criu/`` and ``src/repro/replication/statecache.py`` maps
  which fields are read during dump and written during restore.  The
  pass closes over serializer/restorer methods reachable from the
  checkpoint code (``describe``, ``get_repair_state``,
  ``from_description``, …) so evidence inside the kernel classes
  themselves counts.  The comparison emits the CKPT1xx rules.
* **Layer 3 — differential oracle.**  :mod:`repro.analysis.ckptdiff`
  checkpoints a live workload, restores it into a fresh kernel and
  deep-compares the two containers field-by-field using the Layer-1
  inventory.  A diff on a field this module calls covered is an analyzer
  bug; a diff on an uncovered field is a confirmed CKPT101.

Annotation vocabulary (recorded next to the state itself)::

    self.rto = 200_000       # ckpt: derived -- recomputed by the rto patch
    self._retx_timer = None  # ckpt: ephemeral -- re-armed after restore

    class Bridge:
        __ckpt_ignore__ = True           # host-side infra, never checkpointed
    class FileSystem:
        __ckpt_ignore__ = ("_next_block",)   # per-field ignore
    class Cgroup:
        __ckpt_cadence__ = "infrequent"  # dumped via the statecache, not per epoch

Rule catalog (see ``docs/checkpoint-coverage.md``):

========  ========  =====================================================
CKPT100   error     state-bearing class with no dump path and no explicit
                    ``__ckpt_ignore__`` / annotation decision
CKPT101   warning   field mutated at runtime but never dumped
CKPT102   warning   field dumped but never restored
CKPT103   warning   field restored but never dumped (restore-from-nothing)
CKPT104   warning   field written between epochs with no soft-dirty or
                    statecache invalidation path (stale dump)
========  ========  =====================================================

Findings use the standard nlint machinery: :class:`~repro.analysis.linter.
Finding` objects, ``# nlint: disable=CKPT104 -- why`` suppressions, and
``repro lint``'s rule selection.  Known gaps are frozen in
``lint-baseline.json`` (:mod:`repro.analysis.baseline`) so new gaps fail
CI while old ones burn down.

The cross-reference is *name-based* (a field counts as dumped if an
attribute of the same name is read anywhere in the dump closure), which
trades per-class precision for zero false "uncovered" noise; the Layer-3
oracle is the semantic backstop for what name matching over-approximates.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

from repro.analysis.inventory import (
    Annotation,
    InventoryRule,
    assignments,
    family_rules,
    lint_by_path,
    load_sources,
    parse_each,
)
from repro.analysis.linter import Finding, _own_nodes, _self_attr, register

__all__ = [
    "ClassInfo",
    "CoverageReport",
    "FieldInfo",
    "Inventory",
    "analyze_coverage",
    "analyze_source_set",
    "build_inventory",
    "load_source_set",
    "COVERAGE_RULE_IDS",
]


# --------------------------------------------------------------------------- #
# Rule registration (ids, summaries, severities — shared with `repro lint    #
# --list-rules`, `--select` and `--ignore`).  The rules need whole-program   #
# context, so they never fire during per-file linting: the ckptcov driver    #
# constructs their findings directly.                                        #
# --------------------------------------------------------------------------- #


@register
class ClassNotInventoried(InventoryRule):
    rule_id = "CKPT100"
    summary = ("state-bearing class reachable by no dump path and carrying no "
               "__ckpt_ignore__ / annotation decision")
    severity = "error"


@register
class MutatedNeverDumped(InventoryRule):
    rule_id = "CKPT101"
    summary = "mutable container state never read by any checkpoint dump path"


@register
class DumpedNeverRestored(InventoryRule):
    rule_id = "CKPT102"
    summary = "field read during dump but never written by any restore path"


@register
class RestoredNeverDumped(InventoryRule):
    rule_id = "CKPT103"
    summary = "field written during restore but never dumped (restore-from-nothing)"


@register
class NoInvalidationPath(InventoryRule):
    rule_id = "CKPT104"
    summary = ("field written between epochs with no soft-dirty or statecache "
               "invalidation path")


COVERAGE_RULE_IDS = ("CKPT100", "CKPT101", "CKPT102", "CKPT103", "CKPT104")


# --------------------------------------------------------------------------- #
# Source loading                                                              #
# --------------------------------------------------------------------------- #

#: Inventory scope (Layer 1): the simulated kernel and its network stack.
_INVENTORY_DIRS = ("kernel/", "net/")

#: Dump corpus (Layer 2): everything a checkpoint reads.
_DUMP_FILES = (
    "criu/checkpoint.py",
    "criu/collect.py",
    "criu/images.py",
    "criu/pagestore.py",
    "replication/statecache.py",
)

#: Restore corpus (Layer 2): everything a restore writes.
_RESTORE_FILES = ("criu/restore.py",)

#: Scanned for ftrace-hooked mutation wrappers (CKPT104 evidence).
_WRAPPER_FILES = ("container/runtime.py",)

_CKPT_ANNOTATION = Annotation(
    pattern=re.compile(r"#\s*ckpt:\s*([A-Za-z_-]+)(?:\s*--\s*([^#]*))?"),
    vocabulary=frozenset({"derived", "ephemeral"}),
    noun="ckpt annotation",
    hint="derived or ephemeral",
    tag="'# ckpt:'",
    site="a field-assignment line",
)

#: Methods whose writes are the restore path itself (exempt from CKPT104).
_RESTORER_METHODS = frozenset(
    {"restore_from", "from_description", "set_repair_state",
     "apply_fc_checkpoint", "restore_pages", "load_snapshot"}
)

_INIT_METHODS = frozenset({"__init__", "__post_init__"})

#: In-place mutator calls that count as stores on their receiver.
_MUTATOR_METHODS = frozenset(
    {"append", "appendleft", "add", "clear", "discard", "extend", "insert",
     "pop", "popleft", "remove", "setdefault", "sort", "update"}
)

_ENUM_BASES = frozenset(
    {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "Protocol"}
)


@dataclass
class SourceSet:
    """The analyzed source texts, keyed by display path."""

    inventory: dict[str, str]
    dump: dict[str, str]
    restore: dict[str, str]
    wrappers: dict[str, str]


def load_source_set(overrides: Mapping[str, str] | None = None) -> SourceSet:
    """Load the analyzed sources (see :func:`load_sources`) and split
    them into the four corpora.  *overrides* lets a test delete a dump
    site from ``kernel/cgroup.py`` without touching disk."""
    sources = load_sources(
        (*_INVENTORY_DIRS, *_DUMP_FILES, *_RESTORE_FILES, *_WRAPPER_FILES),
        overrides,
    )

    def part(scope: Sequence[str]) -> dict[str, str]:
        prefixes = tuple(f"src/repro/{entry}" for entry in scope)
        return {
            path: text for path, text in sources.items()
            if path.startswith(prefixes)
        }

    return SourceSet(
        inventory=part(_INVENTORY_DIRS),
        dump=part(_DUMP_FILES),
        restore=part(_RESTORE_FILES),
        wrappers=part(_WRAPPER_FILES),
    )


# --------------------------------------------------------------------------- #
# Layer 1 — inventory                                                         #
# --------------------------------------------------------------------------- #


@dataclass
class FieldInfo:
    """One mutable field of a state-bearing class."""

    cls_name: str
    name: str
    path: str
    line: int
    #: relevant | derived | ephemeral | ignored
    classification: str = "relevant"
    #: Non-``__init__`` methods that write the field -> first mutation line.
    mutators: dict[str, int] = dc_field(default_factory=dict)
    #: Layer-2 verdicts, filled by :func:`analyze_source_set`.
    dumped: bool = False
    restored: bool = False

    @property
    def covered(self) -> bool:
        return self.dumped and self.restored


@dataclass
class MethodInfo:
    name: str
    line: int
    self_reads: frozenset[str]
    self_stores: frozenset[str]
    self_subscript_stores: frozenset[str]


@dataclass
class ClassInfo:
    name: str
    path: str
    line: int
    ignored: bool = False
    exempt: bool = False
    #: "epoch" (re-dumped every checkpoint) or "infrequent" (statecache).
    cadence: str = "epoch"
    fields: dict[str, FieldInfo] = dc_field(default_factory=dict)
    methods: dict[str, MethodInfo] = dc_field(default_factory=dict)
    #: Names listed in a per-field ``__ckpt_ignore__`` tuple (kept verbatim
    #: so the self-check can flag entries that match no actual field).
    ignore_list: frozenset[str] = frozenset()

    @property
    def relevant_fields(self) -> list[FieldInfo]:
        return [f for f in self.fields.values() if f.classification == "relevant"]


@dataclass
class Inventory:
    """All state-bearing classes, plus the method index the closure uses."""

    classes: list[ClassInfo] = dc_field(default_factory=list)
    #: method name -> [(owning ClassInfo, FunctionDef ast)]
    method_index: dict[str, list[tuple[ClassInfo, ast.AST]]] = dc_field(
        default_factory=dict
    )

    def by_name(self, name: str) -> ClassInfo | None:
        for info in self.classes:
            if info.name == name:
                return info
        return None

    @property
    def class_names(self) -> frozenset[str]:
        return frozenset(c.name for c in self.classes)


def _base_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_exempt(node: ast.ClassDef) -> bool:
    """Enums and exceptions carry no checkpointable instance state."""
    names = {_base_name(b) for b in node.bases} | {node.name}
    if names & _ENUM_BASES:
        return True
    return any(n.endswith(("Error", "Exception")) for n in names)


def _literal(node: ast.AST):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None


def _self_writes(fn: ast.AST) -> dict[str, int]:
    """``self.X`` fields *fn* writes (assign/augassign/del/subscript-store/
    in-place mutator call) -> first line."""
    out: dict[str, int] = {}

    def note(name: str | None, line: int) -> None:
        if name is not None:
            out.setdefault(name, line)

    for node in _own_nodes(fn):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS:
                inner = node.func.value
                while isinstance(inner, ast.Subscript):
                    inner = inner.value
                note(_self_attr(inner), node.lineno)
            continue
        else:
            continue
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    while isinstance(element, ast.Subscript):
                        element = element.value
                    note(_self_attr(element), node.lineno)
                continue
            while isinstance(target, ast.Subscript):
                target = target.value
            note(_self_attr(target), node.lineno)
    return out


def _self_subscript_writes(fn: ast.AST) -> set[str]:
    """Fields written *through a subscript* (``self.X[i] = ...``)."""
    out: set[str] = set()
    for node in _own_nodes(fn):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Subscript):
                inner = target.value
                while isinstance(inner, ast.Subscript):
                    inner = inner.value
                name = _self_attr(inner)
                if name is not None:
                    out.add(name)
    return out


def _self_reads(fn: ast.AST) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(fn):
        name = _self_attr(node)
        if name is not None:
            out.add(name)
    return out


def _scan_class(
    node: ast.ClassDef, path: str, source_lines: list[str], field_lines: set[int]
) -> ClassInfo:
    """Scan one class; adds the lines that assign its fields to *field_lines*."""
    info = ClassInfo(name=node.name, path=path, line=node.lineno)
    info.exempt = _is_exempt(node)
    ignored_fields: set[str] = set()

    # Class-level markers and dataclass fields.
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            target = stmt.targets[0].id
            if target == "__ckpt_ignore__":
                value = _literal(stmt.value)
                if value is True:
                    info.ignored = True
                elif isinstance(value, (tuple, list)):
                    ignored_fields |= {str(v) for v in value}
            elif target == "__ckpt_cadence__":
                value = _literal(stmt.value)
                if isinstance(value, str):
                    info.cadence = value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            if name.startswith("__") or name.isupper():
                continue
            info.fields.setdefault(
                name, FieldInfo(cls_name=node.name, name=name, path=path,
                                line=stmt.lineno)
            )

    # Methods: field discovery + per-method read/write summaries.
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        writes = _self_writes(stmt)
        info.methods[stmt.name] = MethodInfo(
            name=stmt.name,
            line=stmt.lineno,
            self_reads=frozenset(_self_reads(stmt)),
            self_stores=frozenset(writes),
            self_subscript_stores=frozenset(_self_subscript_writes(stmt)),
        )
        for name, line in writes.items():
            if name.startswith("__"):
                continue
            field_info = info.fields.setdefault(
                name, FieldInfo(cls_name=node.name, name=name, path=path, line=line)
            )
            field_info.line = min(field_info.line, line)
            if stmt.name not in _INIT_METHODS:
                field_info.mutators.setdefault(stmt.name, line)

    info.ignore_list = frozenset(ignored_fields)

    # Classification from annotations / per-field ignores.
    for field_info in info.fields.values():
        site_lines = _field_site_lines(node, field_info.name)
        field_lines.update(site_lines)
        if field_info.name in ignored_fields:
            field_info.classification = "ignored"
            continue
        annotated, _why = _CKPT_ANNOTATION.find(source_lines, site_lines)
        if annotated in _CKPT_ANNOTATION.vocabulary:
            field_info.classification = annotated
    return info


def _field_site_lines(node: ast.ClassDef, name: str) -> list[int]:
    """All source lines that assign field *name* (class level or self.name)."""
    lines: list[int] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.target.id == name:
                lines.append(stmt.lineno)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in _own_nodes(stmt):
                if isinstance(inner, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        inner.targets if isinstance(inner, ast.Assign)
                        else [inner.target]
                    )
                    for target in targets:
                        if _self_attr(target) == name:
                            lines.append(inner.lineno)
    return sorted(set(lines))


def build_inventory(
    sources: Mapping[str, str], problems: list[str] | None = None
) -> Inventory:
    """Layer 1: scan *sources* (display path -> text) for state classes.
    Parse failures, ``# ckpt:`` annotations outside the vocabulary and
    annotations on no field-assignment line are appended to *problems*
    when given."""
    inventory = Inventory()
    for path, text, tree in parse_each(sources, problems):
        lines = text.splitlines()
        field_lines: set[int] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _scan_class(node, path, lines, field_lines)
            inventory.classes.append(info)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inventory.method_index.setdefault(stmt.name, []).append(
                        (info, stmt)
                    )
        if problems is not None:
            problems += _CKPT_ANNOTATION.problems(path, text, field_lines)
    return inventory


# --------------------------------------------------------------------------- #
# Inventory self-check (gates every `repro ckptcov` run)                       #
# --------------------------------------------------------------------------- #

_KNOWN_CADENCES = frozenset({"epoch", "infrequent"})


def _selfcheck(inventory: Inventory) -> list[str]:
    """Every ``__ckpt_ignore__`` field list names real fields, every
    ``__ckpt_cadence__`` is a known cadence, and no two state classes
    share a name (the oracle resolves classes by name)."""
    problems: list[str] = []
    seen: set[str] = set()
    for cls_info in inventory.classes:
        if cls_info.name in seen:
            problems.append(
                f"{cls_info.path}:{cls_info.line}: duplicate state class "
                f"name {cls_info.name} (classes are resolved by name)"
            )
        seen.add(cls_info.name)
        unknown = sorted(cls_info.ignore_list - set(cls_info.fields))
        if unknown:
            problems.append(
                f"{cls_info.path}:{cls_info.line}: __ckpt_ignore__ names "
                f"nonexistent field(s) {', '.join(unknown)} on {cls_info.name}"
            )
        if cls_info.cadence not in _KNOWN_CADENCES:
            problems.append(
                f"{cls_info.path}:{cls_info.line}: unknown __ckpt_cadence__ "
                f"'{cls_info.cadence}' on {cls_info.name}"
            )
    return problems


# --------------------------------------------------------------------------- #
# Layer 2 — cross-reference                                                   #
# --------------------------------------------------------------------------- #


@dataclass
class _Evidence:
    """Attribute-level evidence collected from one side of the checkpoint."""

    reads: set[str] = dc_field(default_factory=set)
    stores: set[str] = dc_field(default_factory=set)
    calls: set[str] = dc_field(default_factory=set)
    #: Constructor calls `Cls(field=..)` seen on this side -> kwarg names.
    ctor_kwargs: dict[str, set[str]] = dc_field(default_factory=dict)
    #: Classes fully reconstructed via `Cls(**desc)` / `cls(**desc)`.
    ctor_full: set[str] = dc_field(default_factory=set)

    def names(self) -> set[str]:
        return self.reads | self.calls


def _walk_evidence(
    ev: _Evidence, root: ast.AST, class_names: frozenset[str], owning: str | None
) -> None:
    for node in ast.walk(root):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                ev.reads.add(node.attr)
            else:
                ev.stores.add(node.attr)
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            inner = node.value
            while isinstance(inner, ast.Subscript):
                inner = inner.value
            if isinstance(inner, ast.Attribute):
                ev.stores.add(inner.attr)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                ev.calls.add(node.func.attr)
                if node.func.attr in _MUTATOR_METHODS:
                    inner = node.func.value
                    while isinstance(inner, ast.Subscript):
                        inner = inner.value
                    if isinstance(inner, ast.Attribute):
                        ev.stores.add(inner.attr)
            elif isinstance(node.func, ast.Name):
                fn_name = node.func.id
                if fn_name in ("getattr", "setattr") and len(node.args) >= 2:
                    const = node.args[1]
                    if isinstance(const, ast.Constant) and isinstance(
                        const.value, str
                    ):
                        (ev.reads if fn_name == "getattr" else ev.stores).add(
                            const.value
                        )
                has_star = any(kw.arg is None for kw in node.keywords)
                if fn_name in class_names:
                    if has_star:
                        ev.ctor_full.add(fn_name)
                    bucket = ev.ctor_kwargs.setdefault(fn_name, set())
                    bucket.update(kw.arg for kw in node.keywords if kw.arg)
                elif fn_name == "cls" and owning is not None and has_star:
                    ev.ctor_full.add(owning)


def _close_over(
    seeds: Sequence[ast.AST], inventory: Inventory
) -> _Evidence:
    """Collect evidence from *seeds*, then transitively from every inventory
    method whose name is read or called from evidence gathered so far.

    The closure is name-based (no receiver typing): calling
    ``container.cgroup.describe()`` pulls in every ``describe`` body.  That
    over-approximates "dumped", never under-approximates it.
    """
    ev = _Evidence()
    class_names = inventory.class_names
    for seed in seeds:
        _walk_evidence(ev, seed, class_names, owning=None)
    seen: set[str] = set()
    queue: deque[str] = deque(sorted(ev.names()))
    while queue:
        name = queue.popleft()
        if name in seen:
            continue
        seen.add(name)
        for cls_info, fn in inventory.method_index.get(name, ()):
            _walk_evidence(ev, fn, class_names, owning=cls_info.name)
        for new in sorted(ev.names() - seen):
            queue.append(new)
    return ev


def _parse_hooked_functions(sources: Mapping[str, str]) -> frozenset[str]:
    """The ftrace hook list the statecache invalidates on (HOOKED_FUNCTIONS)."""
    for _, _, tree in parse_each(sources):
        for name, value, _ in assignments(ast.walk(tree)):
            hooks = _literal(value) if name == "HOOKED_FUNCTIONS" else None
            if isinstance(hooks, (tuple, list)):
                return frozenset(str(v) for v in hooks)
    return frozenset()


def _traced_mutators(
    sources: Mapping[str, str], hooked: frozenset[str]
) -> frozenset[str]:
    """Method names called inside a wrapper that fires a hooked ftrace event.

    ``Container.add_mount`` calls ``namespaces.add_mount`` *and*
    ``ftrace.trace("do_mount", ...)``; every attribute call sharing that
    wrapper body therefore has a statecache invalidation path.
    """
    traced: set[str] = set()
    for _, _, tree in parse_each(sources):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            fires_hook = False
            called: set[str] = set()
            for inner in _own_nodes(node):
                if isinstance(inner, ast.Call) and isinstance(
                    inner.func, ast.Attribute
                ):
                    called.add(inner.func.attr)
                    if (
                        inner.func.attr == "trace"
                        and inner.args
                        and isinstance(inner.args[0], ast.Constant)
                        and inner.args[0].value in hooked
                    ):
                        fires_hook = True
            if fires_hook:
                traced |= called
    return frozenset(traced)


# --------------------------------------------------------------------------- #
# Findings                                                                    #
# --------------------------------------------------------------------------- #


@dataclass
class CoverageReport:
    """Everything the analyzer learned, plus the emitted findings."""

    inventory: Inventory
    findings: list[Finding]
    dump_names: frozenset[str]
    restore_names: frozenset[str]
    #: The selfcheck: why the inventory cannot be trusted (empty = sound).
    problems: list[str]

    @property
    def dispositions(self) -> dict[str, str]:
        """Class name -> how the analyzer accounts for it, as the
        selfcheck prints it."""
        out: dict[str, str] = {}
        for cls_info in self.inventory.classes:
            if cls_info.ignored:
                out[cls_info.name] = "ignored (__ckpt_ignore__)"
            elif cls_info.exempt:
                out[cls_info.name] = "exempt (enum/exception)"
            elif not cls_info.fields:
                out[cls_info.name] = "stateless"
            else:
                by_kind: dict[str, int] = {}
                for field_info in cls_info.fields.values():
                    kind = field_info.classification
                    by_kind[kind] = by_kind.get(kind, 0) + 1
                out[cls_info.name] = ", ".join(
                    f"{count} {kind}" for kind, count in sorted(by_kind.items())
                )
        return out

    def uncovered(self) -> set[tuple[str, str]]:
        """(class, field) pairs the static pass could not prove covered.

        Computed from the inventory flags directly, so suppressed or
        baselined findings still count — the differential oracle uses this
        to tell "confirmed CKPT101" from "analyzer bug".
        """
        out: set[tuple[str, str]] = set()
        for cls_info in self.inventory.classes:
            if cls_info.ignored or cls_info.exempt:
                continue
            for field_info in cls_info.relevant_fields:
                if not field_info.covered:
                    out.add((cls_info.name, field_info.name))
        return out


def _emit(
    inventory: Inventory,
    dump: _Evidence,
    restore: _Evidence,
    traced: frozenset[str],
) -> list[Finding]:
    findings: list[Finding] = []

    def add(rule_id: str, path: str, line: int, message: str) -> None:
        severity = "error" if rule_id == "CKPT100" else "warning"
        findings.append(
            Finding(rule_id=rule_id, path=path, line=line, col=1,
                    message=message, severity=severity)
        )

    for cls_info in inventory.classes:
        if cls_info.ignored or cls_info.exempt:
            continue
        relevant = cls_info.relevant_fields
        if not relevant:
            continue

        # Resolve per-field dump/restore evidence.
        for field_info in relevant:
            field_info.dumped = field_info.name in dump.names()
            field_info.restored = (
                field_info.name in restore.stores
                or cls_info.name in restore.ctor_full
                or field_info.name in restore.ctor_kwargs.get(cls_info.name, ())
            )

        if not any(f.dumped for f in relevant):
            # Self-check: the class as a whole escaped the checkpoint.  One
            # class-level error beats N per-field warnings for a subsystem
            # that was never wired in (or an infra class missing its
            # explicit __ckpt_ignore__).
            names = ", ".join(sorted(f.name for f in relevant)[:6])
            add(
                "CKPT100", cls_info.path, cls_info.line,
                f"class {cls_info.name} has {len(relevant)} checkpoint-"
                f"relevant field(s) ({names}{', ...' if len(relevant) > 6 else ''}) "
                "but no checkpoint dump path reads any of them; set "
                "__ckpt_ignore__ with a justification, annotate the fields "
                "(# ckpt: derived / ephemeral), or wire the class into the "
                "dump",
            )
            continue

        for field_info in sorted(relevant, key=lambda f: (f.line, f.name)):
            label = f"{cls_info.name}.{field_info.name}"
            if not field_info.dumped and not field_info.restored:
                add(
                    "CKPT101", field_info.path, field_info.line,
                    f"{label} is mutable container state but no checkpoint "
                    "dump path reads it; the backup diverges at failover "
                    "(dump it, or annotate # ckpt: derived / ephemeral)",
                )
            elif field_info.dumped and not field_info.restored:
                add(
                    "CKPT102", field_info.path, field_info.line,
                    f"{label} is read during dump but never written by any "
                    "restore path; the dumped value is dropped on the floor",
                )
            elif field_info.restored and not field_info.dumped:
                add(
                    "CKPT103", field_info.path, field_info.line,
                    f"{label} is written during restore but never dumped — "
                    "restore-from-nothing fabricates state",
                )

        # CKPT104: staleness.  Infrequent-cadence classes are dumped from
        # the statecache; any mutator must invalidate it (ftrace hook) or
        # bump a version field the cache can compare.
        if cls_info.cadence == "infrequent":
            for field_info in relevant:
                if not field_info.dumped:
                    continue
                for method, line in sorted(field_info.mutators.items()):
                    if method in _RESTORER_METHODS or method in _INIT_METHODS:
                        continue
                    method_info = cls_info.methods.get(method)
                    if method_info and "version" in method_info.self_stores:
                        continue
                    if method in traced:
                        continue
                    add(
                        "CKPT104", field_info.path, line,
                        f"{cls_info.name}.{method}() writes "
                        f"{field_info.name}, which is dumped from the "
                        "infrequent-state cache, but neither bumps a "
                        "version field nor runs under an ftrace-hooked "
                        "wrapper — a checkpoint would dump the stale "
                        "cached value",
                    )

        # CKPT104 (soft-dirty flavor): classes with soft-dirty tracking
        # (they define clear_refs) must mark pages dirty wherever they
        # write them, or incremental checkpoints miss the write.
        if "clear_refs" in cls_info.methods:
            for method, method_info in sorted(cls_info.methods.items()):
                if method in _RESTORER_METHODS or method in _INIT_METHODS:
                    continue
                touched = method_info.self_reads | method_info.self_stores
                if (
                    "pages" in method_info.self_subscript_stores
                    and "_tracking" not in touched
                ):
                    add(
                        "CKPT104", cls_info.path, method_info.line,
                        f"{cls_info.name}.{method}() writes pages without "
                        "updating soft-dirty tracking (_tracking); an "
                        "incremental checkpoint would skip the write",
                    )

    return findings


def analyze_source_set(
    srcs: SourceSet,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> CoverageReport:
    """Run Layers 1+2 and the inventory selfcheck over an explicit
    :class:`SourceSet` (tests use this with synthetic sources)."""
    keep = {
        rule.rule_id
        for rule in family_rules(COVERAGE_RULE_IDS, select, ignore)
    }
    problems: list[str] = []
    inventory = build_inventory(srcs.inventory, problems)
    dump = _close_over(
        [tree for _, _, tree in parse_each(srcs.dump)], inventory)
    restore = _close_over(
        [tree for _, _, tree in parse_each(srcs.restore)], inventory)
    hooked = _parse_hooked_functions(srcs.dump)
    traced = _traced_mutators(srcs.wrappers, hooked)

    by_path: dict[str, list[Finding]] = {}
    for finding in _emit(inventory, dump, restore, traced):
        if finding.rule_id in keep:
            by_path.setdefault(finding.path, []).append(finding)
    findings = lint_by_path(srcs.inventory, by_path, lambda ctx, found: found)
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    return CoverageReport(
        inventory=inventory,
        findings=findings,
        dump_names=frozenset(dump.names()),
        restore_names=frozenset(restore.stores),
        problems=problems + _selfcheck(inventory),
    )


def analyze_coverage(
    overrides: Mapping[str, str] | None = None,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> CoverageReport:
    """Run the static checkpoint state-coverage analysis over the package.

    *overrides* substitutes source text by path suffix — the acceptance
    probe deletes one field's dump site and asserts CKPT101 appears.
    """
    return analyze_source_set(load_source_set(overrides), select, ignore)
