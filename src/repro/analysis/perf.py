"""Hot-path performance analyzer (``repro perf``).

The simulator's usefulness scales with how many seeds x workloads x fault
schedules a CI budget can afford, so the per-event dispatch loop, the
per-page checkpoint paths and the fleet's slot bookkeeping are performance
surfaces in their own right.  This module statically answers "is this code
allowed to be slow?" the same way :mod:`repro.analysis.coverage` answers
"is the checkpoint complete?".

Two static layers, plus the work counters:

* **Layer 1 — hot classification.**  A name-based call-graph pass over the
  hot subsystems (:data:`PERF_SCOPE_FILES`) classifies every function as
  **per-event** (runs for every dispatched simulation event), **per-page**
  (runs for every page written/digested/stored) or **per-epoch** (runs once
  per checkpoint epoch), by reachability from :data:`DEFAULT_ROOTS`.
  Hotness is recorded next to the code itself with the annotation
  vocabulary below; the report's selfcheck ``problems`` prove every root
  resolves and every annotation agrees with the computed class.
* **Layer 2 — PERF rules.**  The PERF001..PERF006 rules below run *only*
  inside hot functions, riding the standard nlint machinery:
  :class:`~repro.analysis.linter.Finding` objects, per-line
  ``# nlint: disable=PERF002 -- why`` suppressions, and ``repro lint``'s
  rule selection and baseline gate (``lint-baseline.json``).
* **Work counters.**  The deterministic profiler
  (:mod:`repro.sim.profiler`) counts the work a same-seed run does; the
  paper gate's ``engine`` cells (:mod:`repro.experiments.engine`) pin
  those counters exactly.

Annotation vocabulary (on the ``def`` header, like ``# ckpt:``)::

    def store_page(...):  # hot: per-page -- every committed page lands here
    def _load_scan(...):  # hot: exempt -- test reference, never hot

    class SimProfiler:
        __perf_exempt__ = True   # the measuring instrument is not measured

Rule catalog (see ``docs/perf.md``):

========  =======  ======================================================
PERF001   warning  fresh list/dict/set/tuple built every iteration of a
                   per-event or per-page loop
PERF002   warning  whole-buffer (re-)hashing inside a hot loop where a
                   cached or incremental digest would do
PERF003   warning  ``sorted()``/``.sort()`` per event (or inside any hot
                   loop) — sort once, maintain order incrementally
PERF004   warning  the same multi-part attribute chain resolved 3+ times
                   in one hot loop body — hoist it to a local
PERF005   warning  fresh ``lambda`` / ``itertools.count`` constructed per
                   event or inside a hot loop
PERF006   warning  aggregate recomputed by a full scan of a collection on
                   every hot call — maintain it incrementally
========  =======  ======================================================

Like the CKPT1xx pass, the call graph is *name-based* (a call to ``x.f()``
reaches every in-scope function named ``f``), trading per-receiver
precision for zero false "cold" verdicts.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from dataclasses import dataclass, field as dc_field, replace
from typing import Iterator, Mapping, Sequence

from repro.analysis.inventory import (
    Annotation,
    InventoryRule,
    assignments,
    attr_chain,
    call_name,
    family_rules,
    lint_by_path,
    load_sources,
    parse_each,
)
from repro.analysis.linter import Finding, LintContext, _own_nodes, register

__all__ = [
    "DEFAULT_ROOTS",
    "HOTNESS_RANK",
    "HotFunction",
    "PERF_RULE_IDS",
    "PERF_SCOPE_FILES",
    "PerfReport",
    "analyze_perf",
    "build_hot_map",
]


# --------------------------------------------------------------------------- #
# Rule registration.  Like the CKPT rules these need whole-program context    #
# (the hot map), so the generic per-file walker never fires them; the perf    #
# driver calls their check() methods directly on each hot function.           #
# --------------------------------------------------------------------------- #


#: Hotness classes, strongest first (rank 0 beats rank 2 on a shared path).
HOTNESS_RANK = {"per-event": 0, "per-page": 1, "per-epoch": 2}
_RANK_NAME = {rank: name for name, rank in HOTNESS_RANK.items()}

#: Hotness classes in which an *entire function body* counts as a loop body
#: (the function itself is the loop: it runs per event / per page).
_PER_CALL_HOT = ("per-event", "per-page")

_ALLOC_BUILTINS = frozenset({"list", "dict", "set", "tuple"})
_HASH_CALLS = ("zlib.crc32", "zlib.adler32", "hashlib.")
_HASH_BARE = frozenset(
    {"crc32", "adler32", "md5", "sha1", "sha224", "sha256", "sha384",
     "sha512", "blake2b", "blake2s"}
)
_AGGREGATORS = frozenset({"sum", "len", "min", "max", "any", "all"})


def _loops(fn: ast.AST) -> list[ast.For | ast.While]:
    """Loop statements belonging to *fn* (nested defs/lambdas excluded)."""
    return [n for n in _own_nodes(fn) if isinstance(n, (ast.For, ast.While))]


def _loop_body_nodes(loop: ast.For | ast.While) -> Iterator[ast.AST]:
    """Nodes evaluated once per iteration: everything inside the loop body
    (including nested loops *and their iters* — those re-evaluate per outer
    iteration) but not the loop's own iter/test, which runs once."""
    for stmt in list(loop.body) + list(loop.orelse):
        yield stmt
        yield from ast.walk(stmt)


def _is_hash_call(call: ast.Call, ctx: LintContext) -> bool:
    name = ctx.call_name(call)
    if name is not None and (
        name.startswith(_HASH_CALLS) or name in _HASH_BARE
    ):
        return True
    return (
        isinstance(call.func, ast.Attribute) and call.func.attr in _HASH_BARE
    )


@register
class AllocationChurn(InventoryRule):
    rule_id = "PERF001"
    summary = ("fresh list/dict/set/tuple allocated every iteration of a "
               "per-event or per-page loop — hoist or reuse the container")

    def check(self, fn, ctx, hotness):
        if hotness not in _PER_CALL_HOT:
            return
        seen: set[int] = set()
        for loop in _loops(fn):
            for node in _loop_body_nodes(loop):
                if id(node) in seen:
                    continue
                kind = None
                if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
                    kind = type(node).__name__
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ALLOC_BUILTINS
                    and node.func.id not in ctx.imports
                ):
                    kind = f"{node.func.id}()"
                if kind is not None:
                    seen.add(id(node))
                    yield self.finding(
                        ctx, node,
                        f"{kind} allocated on every iteration of a hot "
                        f"loop — allocate once outside and reuse",
                    )


@register
class WholeBufferRehash(InventoryRule):
    rule_id = "PERF002"
    summary = ("whole-buffer hashing inside a hot loop — cache digests by "
               "generation or hash incrementally (dirty data only)")

    def check(self, fn, ctx, hotness):
        seen: set[int] = set()
        for loop in _loops(fn):
            for node in _loop_body_nodes(loop):
                if id(node) in seen or not isinstance(node, ast.Call):
                    continue
                if _is_hash_call(node, ctx):
                    seen.add(id(node))
                    yield self.finding(
                        ctx, node,
                        "hashes a whole buffer inside a hot loop — hash "
                        "only what changed and cache the rest by "
                        "generation",
                    )


@register
class SortPerEvent(InventoryRule):
    rule_id = "PERF003"
    summary = ("sorted()/.sort() on a hot path — sort once and maintain "
               "order incrementally, or iterate an already-ordered index")

    def _sort_kind(self, node: ast.AST, ctx: LintContext) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
            and "sorted" not in ctx.imports
        ):
            return "sorted()"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "sort":
            return ".sort()"
        return None

    def check(self, fn, ctx, hotness):
        seen: set[int] = set()
        for loop in _loops(fn):
            for node in _loop_body_nodes(loop):
                kind = self._sort_kind(node, ctx)
                if kind is not None and id(node) not in seen:
                    seen.add(id(node))
                    yield self.finding(
                        ctx, node,
                        f"{kind} inside a hot loop re-sorts per iteration "
                        f"— maintain the order incrementally",
                    )
        if hotness in _PER_CALL_HOT:
            for node in _own_nodes(fn):
                kind = self._sort_kind(node, ctx)
                if kind is not None and id(node) not in seen:
                    seen.add(id(node))
                    yield self.finding(
                        ctx, node,
                        f"{kind} runs on every {hotness} call — sort once "
                        f"and keep the result ordered",
                    )


@register
class RepeatedAttributeLookup(InventoryRule):
    rule_id = "PERF004"
    summary = ("same attribute chain resolved 3+ times in one hot loop "
               "body — bind it to a local before the loop")

    def check(self, fn, ctx, hotness):
        for loop in _loops(fn):
            counts: dict[str, list[ast.AST]] = {}
            for node in _loop_body_nodes(loop):
                if not isinstance(node, ast.Attribute):
                    continue
                if not isinstance(node.ctx, ast.Load):
                    continue
                chain = attr_chain(node)
                if chain is None or "." not in chain:
                    continue
                counts.setdefault(chain, []).append(node)
            for chain, sites in sorted(counts.items()):
                # Keep only maximal chains: `a.b` occurrences that are part
                # of an `a.b.c` load would double-count the same lookup.
                maximal = [
                    s for s in sites
                    if not any(
                        other is not s
                        and isinstance(other, ast.Attribute)
                        and other.value is s
                        for others in counts.values()
                        for other in others
                    )
                ]
                if len(maximal) >= 3:
                    yield self.finding(
                        ctx, maximal[0],
                        f"'{chain}' resolved {len(maximal)} times per "
                        f"iteration of a hot loop — hoist to a local",
                    )


@register
class PerCallConstruction(InventoryRule):
    rule_id = "PERF005"
    summary = ("lambda / itertools.count constructed per event or inside "
               "a hot loop — build once and reuse")

    def _kind(self, node: ast.AST, ctx: LintContext) -> str | None:
        if isinstance(node, ast.Lambda):
            return "lambda"
        if isinstance(node, ast.Call):
            name = ctx.call_name(node)
            if name in ("itertools.count", "itertools.cycle"):
                return name
        return None

    def check(self, fn, ctx, hotness):
        seen: set[int] = set()
        for loop in _loops(fn):
            for node in _loop_body_nodes(loop):
                kind = self._kind(node, ctx)
                if kind is not None and id(node) not in seen:
                    seen.add(id(node))
                    yield self.finding(
                        ctx, node,
                        f"fresh {kind} built every iteration of a hot loop "
                        f"— construct it once outside",
                    )
        if hotness in _PER_CALL_HOT:
            for node in _own_nodes(fn):
                kind = self._kind(node, ctx)
                if kind is not None and id(node) not in seen:
                    seen.add(id(node))
                    yield self.finding(
                        ctx, node,
                        f"fresh {kind} built on every {hotness} call — "
                        f"construct it once and reuse",
                    )


_SCAN_OK_STMTS = (ast.If, ast.AugAssign, ast.Continue, ast.Pass)


def _is_accumulator_scan(loop: ast.For) -> bool:
    """True when the loop only filters and accumulates — the shape of an
    aggregate recomputed by full scan (count/sum over a collection)."""

    def ok(stmts: Sequence[ast.stmt]) -> bool:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                if not ok(stmt.body) or not ok(stmt.orelse):
                    return False
            elif not isinstance(stmt, _SCAN_OK_STMTS):
                return False
        return True

    return ok(loop.body) and not loop.orelse


@register
class FullScanAggregate(InventoryRule):
    rule_id = "PERF006"
    summary = ("aggregate recomputed by scanning a whole collection on "
               "every hot call — maintain an incremental index instead")

    def check(self, fn, ctx, hotness):
        for node in _own_nodes(fn):
            # sum(... for x in self.coll.values()) and friends.
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _AGGREGATORS
                and node.func.id not in ctx.imports
                and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
            ):
                comp = node.args[0]
                source = comp.generators[0].iter
                if isinstance(source, ast.Call):
                    source = source.func
                chain = attr_chain(source)
                if chain is not None and "." in chain:
                    yield self.finding(
                        ctx, node,
                        f"{node.func.id}() scans all of '{chain}' on every "
                        f"hot call — maintain the aggregate incrementally",
                    )
        for loop in _loops(fn):
            if not isinstance(loop, ast.For) or not _is_accumulator_scan(loop):
                continue
            source = loop.iter
            if isinstance(source, ast.Call) and isinstance(
                source.func, ast.Attribute
            ) and source.func.attr in ("items", "values", "keys"):
                source = source.func.value
            chain = attr_chain(source)
            if chain is not None and "." in chain:
                yield self.finding(
                    ctx, loop,
                    f"full scan of '{chain}' to recompute an aggregate on "
                    f"every hot call — maintain an incremental index",
                )


PERF_RULE_IDS = ("PERF001", "PERF002", "PERF003", "PERF004", "PERF005",
                 "PERF006")


# --------------------------------------------------------------------------- #
# Layer 1 — hot classification                                                #
# --------------------------------------------------------------------------- #

#: The hot subsystems: the DES core, the per-packet chain, the page paths,
#: and slot bookkeeping.
PERF_SCOPE_FILES = (
    "sim/engine.py",
    "sim/trace.py",
    "sim/profiler.py",
    "kernel/tcp.py",
    "kernel/netdev.py",
    "kernel/mm.py",
    "criu/collect.py",
    "criu/pagestore.py",
    "replication/statecache.py",
    "replication/primary.py",
    "replication/backup.py",
    "fleet/pool.py",
    "fleet/placement.py",
)

#: Classification roots: ``(qualname, hotness)``.  Everything reachable
#: from a root (by name-based call closure within the scope files)
#: inherits the strongest hotness of any root reaching it.
DEFAULT_ROOTS = (
    # per-event: the dispatch loop itself and everything it touches.
    ("Engine.run", "per-event"),
    ("Engine.step", "per-event"),
    ("Engine._dispatch", "per-event"),
    ("Engine._schedule", "per-event"),
    ("Engine.call_later", "per-event"),
    ("Process._resume", "per-event"),
    ("trace", "per-event"),
    # per-event: every packet's send, bridge hop and demux.
    ("TcpSocket._send_packet", "per-event"),
    ("TcpStack.demux", "per-event"),
    ("Bridge.forward", "per-event"),
    # per-event: slot bookkeeping (rebalancer + controller query per tick).
    ("HostPool.load", "per-event"),
    ("HostPool.allocate", "per-event"),
    ("HostPool.release", "per-event"),
    # per-page: every workload write, parasite copy, digest and store.
    ("AddressSpace.write", "per-page"),
    ("AddressSpace.snapshot_pages", "per-page"),
    ("PageDigestCache.digest_image", "per-page"),
    ("RadixTreePageStore.store_page", "per-page"),
    ("LinkedListPageStore.store_page", "per-page"),
    ("verify_page_digests", "per-page"),
    # per-epoch: the checkpoint cycle and its collection/commit phases.
    ("AddressSpace.dirty_pages", "per-epoch"),
    ("StateCollector.collect_memory", "per-epoch"),
    ("PrimaryAgent._checkpoint_cycle", "per-epoch"),
    ("BackupAgent._commit_state", "per-epoch"),
    ("pick_host", "per-epoch"),
)

_HOT_ANNOTATION = Annotation(
    pattern=re.compile(r"#\s*hot:\s*([A-Za-z-]+)(?:\s*--\s*(.*))?"),
    vocabulary=frozenset({"per-event", "per-page", "per-epoch", "exempt"}),
    noun="hotness",
    hint="per-event, per-page, per-epoch or exempt",
    tag="'# hot:'",
    site="a function def header",
)


@dataclass
class HotFunction:
    """One function in the perf scope, with its classification."""

    qualname: str
    path: str
    line: int
    node: ast.AST
    #: Method names this function calls (the name-based out-edges).
    calls: frozenset[str] = frozenset()
    #: Computed hotness (None = not reachable from any root).
    hotness: str | None = None
    #: Hotness declared by a ``# hot:`` header annotation, if any.
    declared: str | None = None
    #: The annotation's ``-- why`` justification, if any.
    why: str | None = None
    exempt: bool = False

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


def _called_names(fn: ast.AST) -> frozenset[str]:
    return frozenset(
        name for node in ast.walk(fn)
        if isinstance(node, ast.Call) and (name := call_name(node)) is not None
    )


def _header_lines(fn: ast.AST) -> range:
    """The def header: the def line through the first body statement's line
    (where a ``# hot:`` annotation classifies the function)."""
    first_body = fn.body[0].lineno if fn.body else fn.lineno
    return range(fn.lineno, first_body + 1)


def build_hot_map(
    sources: Mapping[str, str],
    roots: Sequence[tuple[str, str]] = DEFAULT_ROOTS,
    problems: list[str] | None = None,
) -> dict[str, HotFunction]:
    """Layer 1: discover every function in *sources* and classify it by
    reachability from *roots* (plus ``# hot:`` header annotations).
    Parse failures and unsound annotations (unknown vocabulary, or not on
    a def header) are appended to *problems* when given."""
    functions: dict[str, HotFunction] = {}
    by_name: dict[str, list[str]] = {}

    for path, text, tree in parse_each(sources, problems):
        lines = text.splitlines()
        if problems is not None:
            headers = {
                line for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                for line in _header_lines(node)
            }
            problems += _HOT_ANNOTATION.problems(path, text, headers)

        def add(node: ast.AST, qualname: str, exempt_class: bool) -> None:
            declared, why = _HOT_ANNOTATION.find(lines, _header_lines(node))
            exempt = exempt_class or declared == "exempt"
            fn = HotFunction(
                qualname=qualname, path=path, line=node.lineno, node=node,
                calls=_called_names(node),
                declared=declared if declared != "exempt" else None,
                why=why, exempt=exempt,
            )
            functions[qualname] = fn
            by_name.setdefault(fn.name, []).append(qualname)

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(node, node.name, exempt_class=False)
            elif isinstance(node, ast.ClassDef):
                exempt_class = any(
                    name == "__perf_exempt__"
                    for name, _, _ in assignments(node.body)
                )
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        add(stmt, f"{node.name}.{stmt.name}", exempt_class)

    # Rank propagation: worklist of (qualname, rank); callees inherit the
    # caller's rank, strongest (lowest) wins; exempt functions neither
    # receive nor forward hotness.
    rank: dict[str, int] = {}
    work: deque[tuple[str, int]] = deque()

    def seed(qualname: str, hotness: str) -> None:
        fn = functions.get(qualname)
        if fn is None or fn.exempt:
            return
        r = HOTNESS_RANK.get(hotness)
        if r is None:
            return  # unknown vocabulary — the selfcheck reports it
        if rank.get(qualname, 99) > r:
            rank[qualname] = r
            work.append((qualname, r))

    for qualname, hotness in roots:
        seed(qualname, hotness)
    for qualname, fn in functions.items():
        if fn.declared is not None:
            seed(qualname, fn.declared)

    while work:
        caller, r = work.popleft()
        if rank.get(caller, 99) < r:
            continue  # superseded by a stronger path
        for name in functions[caller].calls:
            for callee in by_name.get(name, ()):
                fn = functions[callee]
                if fn.exempt or rank.get(callee, 99) <= r:
                    continue
                rank[callee] = r
                work.append((callee, r))

    for qualname, r in rank.items():
        functions[qualname].hotness = _RANK_NAME[r]
    return functions


def _selfcheck(
    hot_map: Mapping[str, HotFunction], roots: Sequence[tuple[str, str]]
) -> list[str]:
    """Every root resolves to a discovered function, and no annotation
    understates the computed hotness."""
    problems = [
        f"root {qualname} ({hotness}) resolves to no function in the perf "
        f"scope — the classifier cannot reach it"
        for qualname, hotness in roots if qualname not in hot_map
    ]
    for qualname, fn in sorted(hot_map.items()):
        if fn.declared is None or fn.hotness is None:
            continue
        if HOTNESS_RANK[fn.hotness] < HOTNESS_RANK[fn.declared]:
            problems.append(
                f"{fn.path}:{fn.line}: {qualname} is annotated "
                f"'# hot: {fn.declared}' but the classifier computed "
                f"{fn.hotness} — the annotation understates reality"
            )
    return problems


# --------------------------------------------------------------------------- #
# Layer 2 — driver                                                            #
# --------------------------------------------------------------------------- #


@dataclass
class PerfReport:
    """Everything one static perf pass produced."""

    findings: list[Finding] = dc_field(default_factory=list)
    hot_map: dict[str, HotFunction] = dc_field(default_factory=dict)
    #: The selfcheck: why the classification cannot be trusted (empty =
    #: sound).
    problems: list[str] = dc_field(default_factory=list)

    @property
    def dispositions(self) -> dict[str, str]:
        """``path:line  qualname`` -> hotness of every classified or
        exempt function, in source order, as the selfcheck prints it."""
        out: dict[str, str] = {}
        by_line = sorted(self.hot_map.values(), key=lambda f: (f.path, f.line))
        for fn in by_line:
            if fn.exempt:
                out[f"{fn.path}:{fn.line}  {fn.qualname}"] = "exempt"
            elif fn.hotness is not None:
                suffix = " (annotated)" if fn.declared else ""
                out[f"{fn.path}:{fn.line}  {fn.qualname}"] = fn.hotness + suffix
        return out


def analyze_perf(
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    overrides: Mapping[str, str] | None = None,
    roots: Sequence[tuple[str, str]] = DEFAULT_ROOTS,
) -> PerfReport:
    """Run Layers 1+2: classify and selfcheck, then lint only the hot
    functions."""
    rules = family_rules(PERF_RULE_IDS, select, ignore)
    sources = load_sources(PERF_SCOPE_FILES, overrides)
    problems: list[str] = []
    hot_map = build_hot_map(sources, roots, problems)

    per_path: dict[str, list[HotFunction]] = {}
    for fn in hot_map.values():
        if fn.hotness is not None:
            per_path.setdefault(fn.path, []).append(fn)

    # Every message names the hotness of the function it was found in.
    findings = lint_by_path(
        sources, per_path,
        lambda ctx, fns: (
            replace(finding, message=f"[{fn.hotness}] {finding.message}")
            for fn in sorted(fns, key=lambda f: f.line)
            for rule in rules
            for finding in rule.check(fn.node, ctx, fn.hotness)
        ),
    )
    return PerfReport(findings=findings, hot_map=hot_map,
                      problems=problems + _selfcheck(hot_map, roots))
