"""The codebase-specific ``nlint`` rules.

Each rule encodes one way a change could silently break the determinism or
checkpoint-completeness guarantees the reproduction rests on (see
``docs/determinism.md`` for the full catalogue with examples):

* **DET001** — wall-clock / OS-entropy use outside ``sim/rng.py``.
* **DET002** — unordered ``set``s (and live dict views) returned from or
  iterated in ``sim/``, ``kernel/``, ``replication/``.
* **DET003** — ``id()`` / builtin ``hash()`` values in event paths.
* **SIM001** — blocking calls inside simulation generator processes.
* **EXC001** — broad ``except`` clauses that can swallow
  :class:`repro.sim.engine.Interrupt`.

Race-surface rules (warnings — heuristic companions to the dynamic
happens-before detector in :mod:`repro.analysis.races`, see
``docs/races.md``):

* **RACE001** — an instance field mutated from two or more generator
  methods of one class with no ``record_access`` tracking, so the dynamic
  detector is blind to its interleavings.
* **RACE002** — check-then-act across a ``yield``: a field guards a
  branch, the process yields (anyone may run), then the same field is
  written without re-validation.
* **ORD001** — waking waiters by iterating a live instance collection:
  a callback that re-registers mutates the list mid-iteration, and the
  wake order silently becomes insertion-order-dependent.  Swap-then-wake
  (``waiters, self._w = self._w, []``) instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import (
    Finding,
    LintContext,
    Rule,
    _is_generator,
    _own_nodes,
    _self_attr,
    register,
)

__all__ = [
    "BlockingCallInProcess",
    "BroadExceptSwallowsInterrupt",
    "CheckThenActAcrossYield",
    "IdentityHashOrdering",
    "LiveWaiterIteration",
    "UnorderedCollectionLeak",
    "UntrackedSharedMutation",
    "WallClockEntropy",
]

#: Directories whose iteration order feeds the event heap / checkpoints.
_DETERMINISM_DIRS = ("sim", "kernel", "replication")


# --------------------------------------------------------------------------- #
# DET001                                                                      #
# --------------------------------------------------------------------------- #
@register
class WallClockEntropy(Rule):
    """Wall-clock or OS-entropy consultation outside the seeded RNG.

    Draws from the ``random`` module are ndflow's NDF001, which resolves
    them through the same import bindings."""

    rule_id = "DET001"
    summary = (
        "wall-clock/OS-entropy use outside sim/rng.py breaks seed replay; "
        "draw from RngRegistry streams instead"
    )
    interests = (ast.Call,)

    #: Exact banned call targets.
    BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.clock_gettime",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
            "os.urandom",
            "os.getrandom",
            "uuid.uuid1",
            "uuid.uuid4",
        }
    )

    def visit(self, node: ast.Call, ctx: LintContext) -> Iterator[Finding]:
        if ctx.norm_path.endswith("sim/rng.py"):
            return  # the one sanctioned entropy boundary
        name = ctx.call_name(node)
        if name is None:
            return
        if name in self.BANNED:
            yield self.finding(
                ctx,
                node,
                f"call to {name}() consults the wall clock / OS entropy; "
                "simulations must draw time from Engine.now and randomness "
                "from RngRegistry streams",
            )
        elif name.startswith("secrets."):
            yield self.finding(
                ctx, node, f"call to {name}() uses OS entropy; use RngRegistry"
            )


# --------------------------------------------------------------------------- #
# DET002                                                                      #
# --------------------------------------------------------------------------- #
def _is_set_expr(node: ast.AST, set_locals: set[str]) -> bool:
    """Syntactically set-typed: display, comprehension, set()/frozenset()
    call, or a local name bound to one of those."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return isinstance(node, ast.Name) and node.id in set_locals


def _is_dict_view(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values", "items")
        and not node.args
        and not node.keywords
    )


def _annotation_is_set(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    root = annotation
    while isinstance(root, ast.Subscript):
        root = root.value
    return isinstance(root, ast.Name) and root.id in ("set", "frozenset", "Set")


@register
class UnorderedCollectionLeak(Rule):
    """Raw sets / live dict views crossing API or loop boundaries in the
    determinism-critical layers."""

    rule_id = "DET002"
    summary = (
        "iterating or returning unordered sets (or live dict views) in "
        "sim/kernel/replication makes event order hash-dependent; return "
        "tuple(sorted(...)) instead"
    )
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, fn, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_dirs(*_DETERMINISM_DIRS):
            return

        # Pass 1: locals bound to set expressions within this function.
        set_locals: set[str] = set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value, set()):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_locals.add(target.id)
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and _annotation_is_set(node.annotation)
            ):
                set_locals.add(node.target.id)

        # Return annotation promising a set to callers.
        if _annotation_is_set(fn.returns):
            yield self.finding(
                ctx,
                fn,
                f"{fn.name}() is annotated to return a set; callers will "
                "iterate it in hash order — return a sorted tuple",
            )

        for node in _own_nodes(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                if _is_set_expr(node.value, set_locals):
                    yield self.finding(
                        ctx,
                        node,
                        "returning a raw set leaks unordered iteration to "
                        "callers; return tuple(sorted(...))",
                    )
                elif _is_dict_view(node.value):
                    yield self.finding(
                        ctx,
                        node,
                        "returning a live dict view leaks mutable kernel "
                        "state; return a tuple/list copy",
                    )
            elif isinstance(node, ast.For) and _is_set_expr(node.iter, set_locals):
                yield self.finding(
                    ctx,
                    node,
                    "iterating a set makes loop order hash-dependent; "
                    "iterate sorted(...)",
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if _is_set_expr(comp.iter, set_locals):
                        yield self.finding(
                            ctx,
                            node,
                            "comprehension iterates a set in hash order; "
                            "iterate sorted(...)",
                        )


# --------------------------------------------------------------------------- #
# DET003                                                                      #
# --------------------------------------------------------------------------- #
@register
class IdentityHashOrdering(Rule):
    """``id()`` / builtin ``hash()`` values leaking into event paths."""

    rule_id = "DET003"
    summary = (
        "id() and hash() vary across runs (heap layout, PYTHONHASHSEED); "
        "derive orderings and identifiers from stable content"
    )
    interests = (ast.Call,)

    #: Methods whose bodies are debugging aids, not event-path code.
    _EXEMPT_METHODS = ("__repr__", "__str__")

    def visit(self, node: ast.Call, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_dirs("sim", "kernel", "replication", "criu"):
            return
        fn = ctx.current_function
        if fn is not None and fn.name in self._EXEMPT_METHODS:
            return
        name = ctx.call_name(node)
        if name == "id":
            yield self.finding(
                ctx,
                node,
                "id() is an allocation address and differs across runs; "
                "use a stable key (sequence number, name, sorted content)",
            )
        elif name == "hash":
            yield self.finding(
                ctx,
                node,
                "builtin hash() is randomized per process (PYTHONHASHSEED) "
                "for str/bytes; use zlib.crc32 or hashlib for stable values",
            )


# --------------------------------------------------------------------------- #
# SIM001                                                                      #
# --------------------------------------------------------------------------- #
@register
class BlockingCallInProcess(Rule):
    """Real blocking calls inside simulation generator processes."""

    rule_id = "SIM001"
    summary = (
        "blocking wall-clock/OS calls inside a simulation process stall the "
        "event loop without advancing simulated time; yield engine.timeout()"
    )
    interests = (ast.Call,)

    BANNED_EXACT = frozenset(
        {
            "time.sleep",
            "os.system",
            "os.popen",
            "socket.socket",
            "socket.create_connection",
            "input",
        }
    )
    BANNED_PREFIXES = ("subprocess.", "requests.", "urllib.request.")

    def visit(self, node: ast.Call, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_generator:
            return
        name = ctx.call_name(node)
        if name is None:
            return
        if name in self.BANNED_EXACT or name.startswith(self.BANNED_PREFIXES):
            yield self.finding(
                ctx,
                node,
                f"blocking call {name}() inside a simulation process; "
                "charge simulated time via `yield engine.timeout(...)`",
            )


# --------------------------------------------------------------------------- #
# EXC001                                                                      #
# --------------------------------------------------------------------------- #
@register
class BroadExceptSwallowsInterrupt(Rule):
    """Broad except clauses that can swallow ``sim.engine.Interrupt``.

    ``Interrupt`` subclasses ``Exception`` (so generators can be killed by
    fault injection); a generator catching bare ``Exception`` without
    re-raising absorbs the interrupt and keeps a supposedly-dead process
    alive.  A preceding ``except Interrupt`` handler, or a ``raise`` in the
    broad handler's body, makes the pattern safe.
    """

    rule_id = "EXC001"
    summary = (
        "broad except in a generator can swallow sim.engine.Interrupt; "
        "handle Interrupt explicitly or re-raise"
    )
    interests = (ast.Try,)

    @staticmethod
    def _names_in_handler_type(node: ast.AST | None) -> list[str]:
        """Class names caught by a handler; for dotted paths like
        ``engine.Interrupt`` the class is the final attribute."""
        if node is None:
            return []
        exprs = node.elts if isinstance(node, ast.Tuple) else [node]
        names: list[str] = []
        for expr in exprs:
            if isinstance(expr, ast.Attribute):
                names.append(expr.attr)
            elif isinstance(expr, ast.Name):
                names.append(expr.id)
        return names

    def visit(self, node: ast.Try, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_generator:
            return
        interrupt_handled = False
        for handler in node.handlers:
            caught = self._names_in_handler_type(handler.type)
            if "Interrupt" in caught:
                interrupt_handled = True
                continue
            broad = handler.type is None or any(
                name in ("Exception", "BaseException") for name in caught
            )
            if not broad or interrupt_handled:
                continue
            reraises = any(isinstance(n, ast.Raise) for n in ast.walk(handler))
            if not reraises:
                yield self.finding(
                    ctx,
                    handler,
                    "broad except clause in a simulation process swallows "
                    "Interrupt; add `except Interrupt: raise` before it or "
                    "re-raise inside",
                )


# --------------------------------------------------------------------------- #
# RACE001 / RACE002 / ORD001 — race-surface heuristics                        #
# --------------------------------------------------------------------------- #

#: Method calls that mutate the receiver collection in place.
_MUTATORS = frozenset(
    {"append", "appendleft", "add", "clear", "discard", "extend", "insert",
     "pop", "popleft", "remove", "setdefault", "update"}
)


def _mutated_fields(stmt: ast.AST) -> dict[str, int]:
    """``self.X`` fields *stmt* (and its sub-nodes) write to — via
    direct/augmented/subscript assignment or in-place mutator calls —
    mapped to the first line that mutates them."""
    out: dict[str, int] = {}
    for node in [stmt, *_own_nodes(stmt)]:
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, (ast.Delete,)):
            targets = list(node.targets)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                field = _self_attr(node.func.value)
                if field is None and isinstance(node.func.value, ast.Subscript):
                    field = _self_attr(node.func.value.value)
                if field is not None:
                    out.setdefault(field, node.lineno)
            continue
        for target in targets:
            while isinstance(target, ast.Subscript):
                target = target.value
            field = _self_attr(target)
            if field is not None:
                out.setdefault(field, node.lineno)
    return out


def _read_fields(expr: ast.AST) -> set[str]:
    """Names of ``self.X`` fields read anywhere inside *expr*."""
    out: set[str] = set()
    for node in ast.walk(expr):
        field = _self_attr(node)
        if field is not None:
            out.add(field)
    return out


def _recorded_fields_in(node: ast.AST) -> set[str]:
    """Field names passed (as string literals) to ``record_access`` calls
    under *node* — mirrors the dynamic detector's coverage contract."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "record_access"
            and len(sub.args) >= 3
            and isinstance(sub.args[2], ast.Constant)
            and isinstance(sub.args[2].value, str)
        ):
            out.add(sub.args[2].value)
    return out


def _contains_yield(stmt: ast.AST) -> bool:
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _own_nodes(stmt)
    )


@register
class UntrackedSharedMutation(Rule):
    """A field mutated from several generator methods with no tracking."""

    rule_id = "RACE001"
    summary = (
        "instance field mutated from 2+ generator methods without a "
        "record_access call; the happens-before detector cannot see its "
        "interleavings — add record_access on the mutating paths"
    )
    severity = "warning"
    interests = (ast.ClassDef,)

    def visit(self, cls: ast.ClassDef, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_dirs(*_DETERMINISM_DIRS):
            return
        tracked = _recorded_fields_in(cls)
        #: field -> [(method, first mutation line)]
        writers: dict[str, list[tuple[str, int]]] = {}
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_generator(item):
                continue
            fields: dict[str, int] = {}
            for stmt in item.body:
                for field, line in _mutated_fields(stmt).items():
                    fields.setdefault(field, line)
            for field, line in fields.items():
                writers.setdefault(field, []).append((item.name, line))
        for field in sorted(writers):
            methods = writers[field]
            if len(methods) < 2 or field in tracked:
                continue
            names = ", ".join(name for name, _ in methods)
            yield Finding(
                rule_id=self.rule_id,
                path=ctx.path,
                line=methods[0][1],
                col=0,
                message=(
                    f"{cls.name}.{field} is mutated by generator methods "
                    f"{names} but never passed to record_access; its "
                    "interleavings are invisible to `repro races`"
                ),
                severity=self.severity,
            )


@register
class CheckThenActAcrossYield(Rule):
    """A guard read before a yield, acted on after — the check may be stale."""

    rule_id = "RACE002"
    summary = (
        "field checked before a yield and written after it without "
        "re-validation; another process may have changed it while this "
        "one slept"
    )
    severity = "warning"
    interests = (ast.ClassDef,)

    def visit(self, cls: ast.ClassDef, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_dirs(*_DETERMINISM_DIRS):
            return
        # Fields with more than one writing method: only those can go
        # stale under a different process while this one is suspended.
        writer_counts: dict[str, int] = {}
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name.startswith("__"):
                    continue  # initialization isn't concurrent with anything
                for field in {
                    f for stmt in item.body for f in _mutated_fields(stmt)
                }:
                    writer_counts[field] = writer_counts.get(field, 0) + 1
        shared = {f for f, n in writer_counts.items() if n >= 2}
        if not shared:
            return
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_generator(item):
                continue
            tracked = _recorded_fields_in(item)
            for node in _own_nodes(item):
                if not isinstance(node, (ast.If, ast.While)):
                    continue
                candidates = (_read_fields(node.test) & shared) - tracked
                if not candidates:
                    continue
                yielded = False
                for stmt in node.body:
                    if not candidates:
                        break
                    if yielded:
                        # A fresh re-read of the guard in a nested test
                        # counts as re-validation.
                        if isinstance(stmt, (ast.If, ast.While)):
                            candidates -= _read_fields(stmt.test)
                        mutated = _mutated_fields(stmt)
                        stale = mutated.keys() & candidates
                        for field in sorted(stale):
                            yield Finding(
                                rule_id=self.rule_id,
                                path=ctx.path,
                                line=mutated[field],
                                col=stmt.col_offset,
                                message=(
                                    f"{cls.name}.{item.name} checks "
                                    f"self.{field} before a yield and "
                                    "writes it after without re-checking; "
                                    "the guard may be stale by the time "
                                    "this process resumes"
                                ),
                                severity=self.severity,
                            )
                        candidates -= stale
                    if _contains_yield(stmt):
                        yielded = True


@register
class LiveWaiterIteration(Rule):
    """Waking events by iterating the live registration list."""

    rule_id = "ORD001"
    summary = (
        "succeed()/fail() while iterating a live self.<attr> collection; "
        "a resumed callback that re-registers mutates it mid-iteration — "
        "swap first: waiters, self.attr = self.attr, []"
    )
    severity = "warning"
    interests = (ast.For,)

    def visit(self, node: ast.For, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_dirs(*_DETERMINISM_DIRS, "container", "net"):
            return
        field = _self_attr(node.iter)
        if field is None:
            return
        if not isinstance(node.target, ast.Name):
            return
        var = node.target.id
        for sub in _own_nodes(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("succeed", "fail", "trigger")
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id == var
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"iterating self.{field} while waking its elements; "
                    "same-instant wake order becomes mutation-order "
                    "dependent and re-registration corrupts the loop — "
                    "swap the list out before iterating",
                )
                return


# The whole-program rule families live with their analyzers; importing the
# modules registers them so --select/--ignore and --list-rules see the full
# catalog.
from repro.analysis import coverage as _coverage  # noqa: E402,F401  (registration import)
from repro.analysis import ftcov as _ftcov  # noqa: E402,F401  (registration import)
from repro.analysis import ndflow as _ndflow  # noqa: E402,F401  (registration import)
from repro.analysis import perf as _perf  # noqa: E402,F401  (registration import)
