"""``nlint`` core: AST visitor framework, rule registry, suppressions.

Design: one :class:`ast` walk per file.  Rules declare the node types they
care about (:attr:`Rule.interests`); the walker dispatches each node to
every interested rule exactly once, so adding a rule never adds a tree
traversal.  Rules that need whole-file context (e.g. RACE001's per-class
mutation map) can do their own scoped sub-walk from the node they receive.
``repro lint`` runs these per-file rules over the package next to the
inventory analyzers' whole-program rule families (:mod:`repro.analysis.
inventory`), all under one baseline.

Suppression is per line, mirroring the repo's determinism doc::

    ino = stable_ino(path)  # nlint: disable=DET003  -- justification

A bare ``# nlint: disable`` suppresses every rule on that line.  Findings
are reported in (path, line, column, rule) order, which makes linter output
itself deterministic — the tool practices what it preaches.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "lint_source",
    "register",
]

#: Matches ``# nlint: disable`` or ``# nlint: disable=ID1,ID2`` anywhere in
#: a line (trailing prose after the IDs is allowed and encouraged).
_SUPPRESS_RE = re.compile(r"#\s*nlint:\s*disable(?:=([A-Z0-9, ]+))?")

#: Sentinel meaning "all rules suppressed on this line".
_ALL = "*"


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a source position."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    #: ``"error"`` findings fail the build; ``"warning"`` findings (the
    #: heuristic RACE/ORD rules) are reported but don't affect exit status.
    severity: str = "error"

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }


class LintContext:
    """Per-file state shared by all rules during one walk."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        #: Normalized forward-slash path used for directory scoping.
        self.norm_path = path.replace("\\", "/")
        self.source = source
        self.tree = tree
        #: ``name -> dotted module path`` for every import binding, e.g.
        #: ``{"t": "time", "urandom": "os.urandom"}``.
        self.imports: dict[str, str] = {}
        #: line number -> set of suppressed rule ids (or {_ALL}).
        self.suppressions: dict[int, set[str]] = {}
        #: Stack of enclosing function definitions (innermost last).
        self.function_stack: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        #: Parallel stack of "is a generator" flags.
        self._generator_stack: list[bool] = []

        self._collect_imports()
        self._collect_suppressions()

    # -- scoping helpers -------------------------------------------------
    def in_dirs(self, *dirs: str) -> bool:
        """True if this file lives under any of the named package dirs."""
        return any(f"/{d}/" in self.norm_path for d in dirs)

    @property
    def current_function(self) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        return self.function_stack[-1] if self.function_stack else None

    @property
    def in_generator(self) -> bool:
        """True when the innermost enclosing function is a generator."""
        return bool(self._generator_stack) and self._generator_stack[-1]

    # -- name resolution -------------------------------------------------
    def qualified_name(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to a dotted path through imports.

        ``from datetime import datetime`` + ``datetime.now`` resolves to
        ``datetime.datetime.now``; unresolvable roots (locals, attributes
        of objects) return None so rules stay precise rather than noisy.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def call_name(self, call: ast.Call) -> str | None:
        """Qualified name of a call target (also handles plain builtins)."""
        resolved = self.qualified_name(call.func)
        if resolved is not None:
            return resolved
        if isinstance(call.func, ast.Name) and call.func.id not in self.imports:
            # Unshadowed bare name: report as-is (builtins like id/hash).
            return call.func.id
        return None

    # -- internals -------------------------------------------------------
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[bound] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{node.module}.{alias.name}"

    def _collect_suppressions(self) -> None:
        for lineno, text in enumerate(self.source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            ids = match.group(1)
            if ids is None:
                self.suppressions[lineno] = {_ALL}
            else:
                self.suppressions[lineno] = {
                    part.strip() for part in ids.split(",") if part.strip()
                }

    def suppressed(self, rule_id: str, line: int) -> bool:
        ids = self.suppressions.get(line)
        return ids is not None and (_ALL in ids or rule_id in ids)


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id`, :attr:`summary` and :attr:`interests`,
    and implement :meth:`visit` yielding :class:`Finding`s.  Registration
    is explicit via :func:`register` so the registry stays pluggable (tests
    run single rules; future rules just add a decorated class).
    """

    rule_id: str = ""
    summary: str = ""
    #: Findings of this rule fail the build ("error") or merely report
    #: ("warning").  Heuristic rules should be warnings.
    severity: str = "error"
    #: AST node types this rule wants to see.
    interests: tuple[type, ...] = ()

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=self.severity,
        )


#: The pluggable registry: rule id -> rule class.
REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    REGISTRY[cls.rule_id] = cls
    return cls


def all_rules(
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Rule]:
    """Instantiate registered rules.

    *select* keeps only the named ids; *ignore* then removes ids from
    whatever *select* kept.  Unknown ids in either raise KeyError (a typo
    in CI config should fail loudly, not silently lint nothing).
    """
    # Rules live in their own module; importing it populates the registry.
    from repro.analysis import rules as _rules  # noqa: F401

    if select:
        unknown = sorted(set(select) - set(REGISTRY))
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
        ids = [rid for rid in sorted(REGISTRY) if rid in set(select)]
    else:
        ids = sorted(REGISTRY)
    if ignore:
        unknown = sorted(set(ignore) - set(REGISTRY))
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
        ids = [rid for rid in ids if rid not in set(ignore)]
    return [REGISTRY[rid]() for rid in ids]


def _is_generator(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True if *fn* itself contains a yield (not counting nested defs)."""
    return any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _own_nodes(fn))


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Nodes of *fn*'s body excluding nested function/lambda scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _self_attr(node: ast.AST) -> str | None:
    """``self.X`` -> ``"X"`` (one level only; ``self.a.b`` returns None)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _Walker(ast.NodeVisitor):
    """Single-pass dispatcher feeding every rule its interesting nodes."""

    def __init__(self, rules: Iterable[Rule], ctx: LintContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._dispatch: dict[type, list[Rule]] = {}
        for rule in rules:
            for node_type in rule.interests:
                self._dispatch.setdefault(node_type, []).append(rule)

    def _emit(self, rule: Rule, node: ast.AST) -> None:
        for finding in rule.visit(node, self.ctx):
            if not self.ctx.suppressed(finding.rule_id, finding.line):
                self.findings.append(finding)

    def generic_visit(self, node: ast.AST) -> None:
        for rule in self._dispatch.get(type(node), ()):
            self._emit(rule, node)
        super().generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        self.ctx.function_stack.append(node)
        self.ctx._generator_stack.append(_is_generator(node))
        try:
            self.generic_visit(node)
        finally:
            self.ctx.function_stack.pop()
            self.ctx._generator_stack.pop()


def lint_source(
    source: str, path: str = "<string>", rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Lint one source string (the unit-test entry point)."""
    if rules is None:
        rules = all_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule_id="E999",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
            )
        ]
    ctx = LintContext(path, source, tree)
    walker = _Walker(rules, ctx)
    walker.visit(tree)
    return sorted(walker.findings, key=Finding.sort_key)
