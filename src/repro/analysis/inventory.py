"""The skeleton the inventory analyzers (ckptcov, perf, ndflow, ftcov) share.

Each analyzer inventories one property of a fixed scope of the package
with an AST pass, lets annotations next to the code classify what the
pass cannot, proves those annotations sound with a selfcheck computed
from the same pass, and reports whole-program rules through the nlint
:class:`~repro.analysis.linter.Finding` machinery.  Every analyzer's
report carries ``findings``, ``problems`` (the selfcheck: empty when the
inventory is sound) and ``dispositions`` (how each site is classified).
This module holds everything that does not depend on the property:
the table of the analyzers (:data:`ANALYZERS`, which ``repro lint`` runs
and ``repro analyze`` tags findings by), source loading, the annotation
grammar and its selfcheck, the classified-site model, and the rule
driver.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Sequence

from repro.analysis.linter import Finding, LintContext, Rule, all_rules

__all__ = [
    "ANALYZERS",
    "Annotation",
    "InventoryReport",
    "InventoryRule",
    "Site",
    "SiteInventory",
    "analyze_sites",
    "analyzer_of",
    "assignments",
    "attr_chain",
    "call_name",
    "family_rules",
    "lint_by_path",
    "load_sources",
    "parse_each",
]

#: The inventory analyzers: name -> (module, static-pass function, rule-id
#: prefix of its rule family, what its selfcheck accounts for).
ANALYZERS: dict[str, tuple[str, str, str, str]] = {
    "ckptcov": ("repro.analysis.coverage", "analyze_coverage", "CKPT",
                "class(es)"),
    "perf": ("repro.analysis.perf", "analyze_perf", "PERF",
             "hot/exempt function(s)"),
    "ndflow": ("repro.analysis.ndflow", "analyze_ndflow", "NDF",
               "nondeterminism source(s)"),
    "ftcov": ("repro.analysis.ftcov", "analyze_ftcov", "FTC",
              "failure-surface site(s)"),
}


def analyzer_of(rule_id: str) -> str:
    """The analyzer whose rule family *rule_id* belongs to: one of
    :data:`ANALYZERS`, or ``nlint`` for the per-file rules."""
    return next((name for name, (_, _, prefix, _) in ANALYZERS.items()
                 if rule_id.startswith(prefix)), "nlint")


def load_sources(
    scope: Iterable[str], overrides: Mapping[str, str] | None = None
) -> dict[str, str]:
    """The package sources in *scope* as ``display path -> text``.

    A scope entry ending in ``.py`` is one package-relative file; any
    other entry is a directory of them (``""`` is the whole package).
    Display paths are ``src/repro/<rel>`` whatever the working directory,
    so finding fingerprints are stable.  *overrides* maps a path to
    replacement text: a key replaces the scope file it equals or ends with
    (``kernel/cgroup.py`` or ``src/repro/kernel/cgroup.py``), and a key
    matching no scope file is added as a synthetic source under the same
    display-path form (``kernel/zz.py`` becomes ``src/repro/kernel/zz.py``),
    so it falls in the same path-scoped corpora and rules as a real file.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    rels: set[str] = set()
    for entry in scope:
        if entry.endswith(".py"):
            rels.add(entry)
        else:
            rels.update(
                path.relative_to(root).as_posix()
                for path in (root / entry).rglob("*.py")
                if "__pycache__" not in path.parts
            )
    keys = {
        key.replace("\\", "/"): text for key, text in (overrides or {}).items()
    }

    def matches(key: str, rel: str) -> bool:
        return key == rel or key.endswith("/" + rel)

    out: dict[str, str] = {}
    for rel in sorted(rels):
        text = next((t for key, t in keys.items() if matches(key, rel)), None)
        out[f"src/repro/{rel}"] = (root / rel).read_text() if text is None else text
    for key, text in keys.items():
        if not any(matches(key, rel) for rel in rels):
            out[key if key.startswith("src/repro/") else f"src/repro/{key}"] = text
    return out


def parse_each(
    sources: Mapping[str, str], problems: list[str] | None = None
) -> Iterator[tuple[str, str, ast.Module]]:
    """``(path, text, tree)`` for each source that parses, in path order.
    A parse failure is appended to *problems* when given (plain lint
    reports it as E999 anyway)."""
    for path in sorted(sources):
        text = sources[path]
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            if problems is not None:
                problems.append(f"{path}:{exc.lineno}: does not parse: {exc.msg}")
            continue
        yield path, text, tree


def attr_chain(node: ast.AST) -> str | None:
    """``a.b.c`` as a dotted string, or None for non-trivial bases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def call_name(node: ast.Call) -> str | None:
    """The called name: ``f`` for ``f(...)`` and ``x.f(...)`` alike."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def assignments(
    nodes: Iterable[ast.AST],
) -> Iterator[tuple[str, ast.expr, ast.stmt]]:
    """``(name, value, statement)`` for each ``name = value`` or
    ``name: T = value`` among *nodes*."""
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
        else:
            continue
        if isinstance(target, ast.Name):
            yield target.id, node.value, node


@dataclass(frozen=True)
class Annotation:
    """One ``# <tag>: <class> -- why`` comment family.

    *pattern* captures the class (group 1) and the why-text (group 2).
    The other fields word the selfcheck problems: ``unknown <noun> 'x'
    (use <hint>)`` — the hint defaults to the sorted vocabulary — and
    ``<tag> annotation is not on <site> — it classifies nothing``.
    """

    pattern: re.Pattern[str]
    vocabulary: frozenset[str]
    noun: str
    hint: str = ""
    tag: str = ""
    site: str = ""

    def find(
        self, lines: Sequence[str], linenos: Iterable[int]
    ) -> tuple[str | None, str | None]:
        """``(class, why)`` of the first annotation on *linenos*."""
        for lineno in linenos:
            if 1 <= lineno <= len(lines):
                match = self.pattern.search(lines[lineno - 1])
                if match:
                    why = match.group(2)
                    return match.group(1), why.strip() if why else None
        return None, None

    def problems(
        self, path: str, text: str, inventoried: set[int] | None = None
    ) -> list[str]:
        """Selfcheck one file: annotations naming an unknown class and,
        given the *inventoried* lines, annotations on none of them."""
        out: list[str] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = self.pattern.search(line)
            if match is None:
                continue
            if match.group(1) not in self.vocabulary:
                hint = self.hint or ", ".join(sorted(self.vocabulary))
                out.append(f"{path}:{lineno}: unknown {self.noun} "
                           f"'{match.group(1)}' (use {hint})")
            if inventoried is not None and lineno not in inventoried:
                out.append(f"{path}:{lineno}: {self.tag} annotation is not "
                           f"on {self.site} — it classifies nothing")
        return out


@dataclass
class Site:
    """One inventoried site and how it is classified."""

    #: Analyzer-specific kind (``stream``, ``handler``, ``edge``, …).
    kind: str
    path: str
    line: int
    col: int
    node: ast.AST
    #: Stream / point / edge / function / variable name.
    name: str
    #: Whether the analyzer's registry knows the site (None = no registry).
    registered: bool | None = None
    #: Class declared by an annotation on the site.
    annotated: str | None = None
    why: str | None = None
    #: Class the inventory derived automatically (None = needs one).
    auto: str | None = None

    #: Classes that silence the analyzer's rules ("accounted-for").
    ACCOUNTED: ClassVar[frozenset[str]] = frozenset()

    @property
    def site_class(self) -> str | None:
        return self.annotated if self.annotated is not None else self.auto

    @property
    def accounted(self) -> bool:
        return self.site_class in self.ACCOUNTED

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.name}"

    @property
    def annotation_lines(self) -> range:
        """Lines an annotation classifying this site may sit on."""
        return range(self.line, self.line + 1)


@dataclass
class SiteInventory:
    """Everything one inventory pass discovered."""

    sites: list[Site] = dc_field(default_factory=list)
    by_path: dict[str, list[Site]] = dc_field(default_factory=dict)
    #: Parse failures and structural problems found while building.
    problems: list[str] = dc_field(default_factory=list)

    #: The annotation family that classifies the sites.
    ANNOTATION: ClassVar[Annotation]

    def add(self, site: Site, lines: Sequence[str] | None = None) -> None:
        """Record *site*, first reading its annotation from *lines*."""
        if lines is not None:
            site.annotated, site.why = self.ANNOTATION.find(
                lines, site.annotation_lines)
        self.sites.append(site)
        self.by_path.setdefault(site.path, []).append(site)

    def annotation_problems(self, sources: Mapping[str, str]) -> list[str]:
        """The annotation selfcheck over every file of *sources*."""
        inventoried: dict[str, set[int]] = {}
        for site in self.sites:
            inventoried.setdefault(site.path, set()).update(
                site.annotation_lines)
        problems: list[str] = []
        for path in sorted(sources):
            problems += self.ANNOTATION.problems(
                path, sources[path], inventoried.get(path, set()))
        return problems

    def site_problems(self) -> list[str]:
        """The analyzer's own soundness checks over the built sites."""
        return []

    def dispositions(self) -> dict[str, str]:
        """``path:line  kind:name`` -> class, as the selfcheck prints it."""
        out: dict[str, str] = {}
        for site in sorted(self.sites, key=lambda s: (s.path, s.line, s.label)):
            cls = site.site_class or "UNACCOUNTED"
            if site.annotated is not None:
                cls += " (annotated)"
            out[f"{site.path}:{site.line}  {site.label}"] = cls
        return out


class InventoryRule(Rule):
    """Whole-program rule: registered so ``--list-rules``, ``--select`` and
    ``--ignore`` know it, while its analyzer's driver produces the
    findings.  ``visit`` is a no-op, so per-file linting never fires it
    (the nominal ``ast.Module`` interest satisfies the registry)."""

    severity = "warning"
    interests: tuple[type, ...] = (ast.Module,)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        return iter(())


def family_rules(
    rule_ids: Sequence[str],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Rule]:
    """One analyzer's registered rules, narrowed by *select*/*ignore*.  An
    id of another family raises KeyError like an unknown id — it would
    otherwise silently lint nothing."""
    for opt in (select, ignore):
        unknown = sorted(set(opt or ()) - set(rule_ids))
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
    return [rule for rule in all_rules(select=select, ignore=ignore)
            if rule.rule_id in rule_ids]


def lint_by_path(
    sources: Mapping[str, str],
    by_path: Mapping[str, Sequence],
    check: Callable[[LintContext, Sequence], Iterable[Finding]],
) -> list[Finding]:
    """Run ``check(ctx, items)`` on each file of *by_path* and keep, in
    report order, the findings no ``# nlint: disable`` comment silences."""
    findings: list[Finding] = []
    in_scope = {path: sources[path] for path in by_path if path in sources}
    for path, text, tree in parse_each(in_scope):
        ctx = LintContext(path, text, tree)
        findings.extend(
            finding for finding in check(ctx, by_path[path])
            if not ctx.suppressed(finding.rule_id, finding.line)
        )
    return sorted(findings, key=Finding.sort_key)


@dataclass
class InventoryReport:
    """Everything one site-inventory pass (ndflow, ftcov) produced."""

    findings: list[Finding]
    inventory: SiteInventory
    #: The selfcheck: why the inventory cannot be trusted (empty = sound).
    problems: list[str]

    @property
    def dispositions(self) -> dict[str, str]:
        return self.inventory.dispositions()


def analyze_sites(
    rule_ids: Sequence[str],
    scope: Iterable[str],
    build: Callable[[Mapping[str, str]], SiteInventory],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    overrides: Mapping[str, str] | None = None,
) -> InventoryReport:
    """Build the inventory of *scope*, selfcheck it, then lint every site
    with the family's rules: ``rule.message(site, inventory)`` is the
    finding's message, or None when the site is fine."""
    rules = family_rules(rule_ids, select, ignore)
    sources = load_sources(scope, overrides)
    inventory = build(sources)

    def check(ctx: LintContext, sites: Sequence[Site]) -> Iterator[Finding]:
        for rule in rules:
            for site in sites:
                message = rule.message(site, inventory)
                if message is not None:
                    yield rule.finding(ctx, site.node, message)

    findings = lint_by_path(sources, inventory.by_path, check)
    problems = (inventory.problems + inventory.annotation_problems(sources)
                + inventory.site_problems())
    return InventoryReport(findings=findings, inventory=inventory,
                           problems=problems)
