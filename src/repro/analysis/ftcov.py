"""Recovery-path coverage analyzer (``repro ftcov``), static layers.

NiLiCon's correctness claim lives in its failure paths — failover,
rollback, re-protection — yet those are the least-executed, highest-
stakes lines in the tree (HyCoR makes the same observation from the
replay side).  This module is the static half of the proof that every
one of them is *reachable and exercised*: the sixth analyzer in the
nlint/races/ckptcov/perf/ndflow family.  The runtime half is the
coverage recorder and catalog runner in :mod:`repro.analysis.ftreplay`.

Three layers:

* **Layer 1 — surface inventory.**  An AST pass over the failure-
  handling scope (``replication/``, ``fleet/``, ``faultinject/``,
  ``traffic/``) enumerates the full surface: every ``fault_point()``
  call site (checked against the ``points.py`` registry), every
  registered fault point, the declared ``MEMBER_EDGES`` of the
  ``MEMBER_STATES`` machine plus every literal ``_set_state`` target,
  every ``except`` handler on a recovery/commit/cutover path, every
  ``inject_*`` entry point, every deadline-free wait loop, and every
  ``UNSAFE_*`` catalog knob.  Each site is classified — dynamically
  exercised (it carries a :func:`~repro.sim.faults.coverage_mark` hook
  or a catalog reference), or declared via a ``# ft: <class> -- why``
  trailing annotation (vocabulary in :data:`FT_CLASSES`, grammar
  matching the ``nd:`` / ``hot:`` / ``ckpt:`` families).
* **Layer 1½ — selfcheck.**  The report's ``problems`` reject unknown
  vocabulary, annotations attached to no inventoried site, unaccounted
  sites, ``fault_point()`` names missing from the registry, registered
  points with no ``fault_point()`` site, dynamic
  (non-literal) point names or state targets, ``_set_state`` targets no
  declared edge reaches, edges naming unknown states, and ``backlog``
  annotations that do not name the missing scenario (``scenario:`` in
  the why-text) — the gap backlog cannot rot into vagueness.
* **Layer 2 — FTC rules.**  FTC001–FTC005 below ride the standard
  nlint machinery (:class:`~repro.analysis.linter.Finding`, per-line
  suppressions, and ``repro lint``'s rule selection and baseline gate
  with ``lint-baseline.json``).  An accounted site is not flagged; a
  site annotated ``unsafe`` stays flagged — that is how the
  ``UNSAFE_DROP_SCENARIO`` regression knob keeps a frozen baseline
  entry without failing the selfcheck.

Rule catalog (see ``docs/ftcov.md``):

========  =======  ======================================================
FTC001    warning  broad ``except`` on a recovery path that swallows the
                   failure (no re-raise, no coverage hook, no class)
FTC002    warning  registered fault point armed by zero catalog
                   scenarios; also flags ``UNSAFE_*`` catalog knobs
FTC003    warning  declared state-machine edge claimed by no fleet
                   scenario's ``edges`` declaration
FTC004    warning  wait loop with no deadline in its test and no break —
                   a silent hang here wedges recovery
FTC005    warning  ``inject_*`` entry point with no coverage hook — no
                   oracle can prove any scenario exercises it
========  =======  ======================================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field as dc_field
from typing import ClassVar, Mapping, Sequence

from repro.analysis.inventory import (
    Annotation,
    InventoryReport,
    InventoryRule,
    Site,
    SiteInventory,
    analyze_sites,
    assignments,
    call_name,
    parse_each,
)
from repro.analysis.linter import register

__all__ = [
    "FT_CLASSES",
    "FTCOV_RULE_IDS",
    "FTCOV_SCOPE",
    "FtInventory",
    "FtSite",
    "analyze_ftcov",
    "build_ft_inventory",
]

#: The annotation vocabulary — every inventoried site must end up in
#: exactly one of these classes (automatically or by annotation):
#:
#: ``exercised``  dynamically witnessed: the site carries a coverage
#:                hook, or the catalogs arm/claim it (auto only);
#: ``defensive``  guards a condition the model makes unreachable or
#:                harmless (why-text must argue the guarantee);
#: ``teardown``   quiesce/stop path — entered when a run is being torn
#:                down, not part of the recovery proof;
#: ``bounded``    wait loop whose exit is externally guaranteed (the
#:                why-text names the bound);
#: ``backlog``    known coverage gap filed as a missing scenario — the
#:                why-text must carry ``scenario: <name>``;
#: ``unsafe``     declared hazard — stays flagged by the FTC rules
#:                (regression knobs live here, frozen in the baseline).
FT_CLASSES = frozenset(
    {"exercised", "defensive", "teardown", "bounded", "backlog", "unsafe"}
)

#: Classes that silence the FTC rules ("accounted-for").  ``unsafe`` is
#: deliberately absent: a declared hazard is accounted in the selfcheck
#: but keeps its lint finding.
_ACCOUNTED = FT_CLASSES - {"unsafe"}

_FT_ANNOTATION = Annotation(
    pattern=re.compile(r"#\s*ft:\s*([a-z-]+)(?:\s*--\s*([^#]*))?"),
    vocabulary=FT_CLASSES,
    noun="ft class",
    tag="'ft:'",
    site="an inventoried failure-handling site",
)

#: The failure-handling scope: directories whose except handlers, wait
#: loops and injection surfaces belong to the recovery proof.
FTCOV_SCOPE = ("replication/", "fleet/", "faultinject/", "traffic/")

#: Words in a while-test that mark the wait as deadline-bounded.
_DEADLINE_WORDS = ("now", "deadline", "until", "remaining", "budget")


@dataclass
class FtSite(Site):
    """One failure-handling site found by the Layer-1 inventory.

    ``kind`` is ``point-site`` | ``point`` (registry entry) | ``edge`` |
    ``setstate`` | ``handler`` | ``inject`` | ``loop`` | ``knob``; ``name``
    the point name / ``from->to`` edge / hook name / function name / knob
    variable; ``registered`` (point sites only) whether the runtime
    registry has the name.  An annotation classifies exactly the site's
    own line — one site, one line.
    """

    #: Coverage-hook name carried by the site (handlers / injects).
    hook: str | None = None
    #: Handlers only: catches Exception/BaseException/bare?
    broad: bool = False
    #: Handlers only: body re-raises?
    reraises: bool = False
    #: Extra payload (knob value, caught-exception rendering).
    extra: str | None = None

    ACCOUNTED: ClassVar[frozenset[str]] = _ACCOUNTED


@dataclass
class FtInventory(SiteInventory):
    """Everything the Layer-1 pass discovered, plus cross-file context."""

    #: Registered fault-point names parsed from ``points.py`` sources.
    registry: set[str] = dc_field(default_factory=set)
    #: ``from->to`` names parsed from ``MEMBER_EDGES``.
    declared_edges: set[str] = dc_field(default_factory=set)
    #: States parsed from ``MEMBER_STATES``.
    member_states: set[str] = dc_field(default_factory=set)
    #: Fault points armed by at least one catalog scenario (runtime).
    armed_points: set[str] = dc_field(default_factory=set)
    #: Edges claimed by at least one fleet scenario (runtime).
    claimed_edges: set[str] = dc_field(default_factory=set)

    ANNOTATION: ClassVar[Annotation] = _FT_ANNOTATION

    def site_problems(self) -> list[str]:
        """Layer 1½: every site has a class (automatic or annotated), every
        ``fault_point()`` name is registered and every registered point has
        a ``fault_point()`` site, every ``_set_state`` target
        is reached by a declared edge, every declared edge connects known
        states, and every ``backlog`` annotation names its missing
        scenario."""
        problems: list[str] = []
        to_states = {edge.split("->", 1)[1] for edge in self.declared_edges}
        hooked = {site.name for site in self.sites
                  if site.kind == "point-site"}
        for site in self.sites:
            if site.site_class is None:
                problems.append(
                    f"{site.path}:{site.line}: unaccounted failure-handling "
                    f"site {site.label} — classify it with an 'ft:' "
                    f"annotation or give it a dynamic witness (coverage "
                    f"hook / catalog reference)"
                )
            if site.kind == "point-site" and site.registered is False:
                problems.append(
                    f"{site.path}:{site.line}: fault_point('{site.name}') is "
                    f"not in the points.py registry — scenarios cannot arm "
                    f"it"
                )
            if site.kind == "point" and site.name not in hooked:
                problems.append(
                    f"{site.path}:{site.line}: registered fault point "
                    f"'{site.name}' has no fault_point() site — no scenario "
                    f"can fire it; add the hook or delete the registry entry"
                )
            if site.kind == "setstate" and to_states and (
                site.name not in to_states
            ):
                problems.append(
                    f"{site.path}:{site.line}: _set_state target "
                    f"'{site.name}' is reached by no declared MEMBER_EDGES "
                    f"entry — declare the edge or delete the transition"
                )
            if site.kind == "edge" and self.member_states:
                src_state, dst_state = site.name.split("->", 1)
                for state in (src_state, dst_state):
                    if state not in self.member_states:
                        problems.append(
                            f"{site.path}:{site.line}: MEMBER_EDGES names "
                            f"unknown state '{state}'"
                        )
            if site.annotated == "backlog" and (
                site.why is None or "scenario:" not in site.why
            ):
                problems.append(
                    f"{site.path}:{site.line}: 'backlog' annotation must "
                    f"name the missing scenario ('-- scenario: <name>')"
                )
        return problems


# --------------------------------------------------------------------------- #
# Layer 1 — inventory                                                         #
# --------------------------------------------------------------------------- #


def _str_arg(call: ast.Call, index: int) -> str | None:
    if len(call.args) > index:
        arg = call.args[index]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def _coverage_hook(body: list[ast.stmt], kind: str) -> str | None:
    """The ``coverage_mark(engine, kind, name)`` hook inside *body*."""
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and call_name(node) == "coverage_mark"
                and _str_arg(node, 1) == kind
            ):
                return _str_arg(node, 2)
    return None


def _render_caught(handler: ast.ExceptHandler) -> str:
    if handler.type is None:
        return "bare except"
    def one(node: ast.AST) -> str:
        try:
            return ast.unparse(node)
        except Exception:
            return "<?>"
    if isinstance(handler.type, ast.Tuple):
        return ", ".join(one(el) for el in handler.type.elts)
    return one(handler.type)


_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    elts = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for el in elts:
        name = el.attr if isinstance(el, ast.Attribute) else (
            el.id if isinstance(el, ast.Name) else None
        )
        if name in _BROAD_NAMES:
            return True
    return False


def _parse_string_tuple(node: ast.AST) -> list[str] | None:
    """String elements of a tuple/list/frozenset-literal assignment."""
    if isinstance(node, ast.Call) and call_name(node) == "frozenset":
        if node.args:
            return _parse_string_tuple(node.args[0])
        return None
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out = []
        for el in node.elts:
            if isinstance(el, ast.Constant) and isinstance(el.value, str):
                out.append(el.value)
            else:
                return None
        return out
    return None


def _test_is_bounded(test: ast.AST) -> bool:
    """A while-test is deadline-bounded when it compares simulated time
    or a countdown (``engine.now < deadline``, ``remaining > 0``, …)."""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr in _DEADLINE_WORDS:
            return True
        if isinstance(node, ast.Name) and node.id in _DEADLINE_WORDS:
            return True
    return False


def _yields_timeout(stmt: ast.stmt) -> bool:
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Yield)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "timeout"
        ):
            return True
    return False


def _armed_and_claimed() -> tuple[set[str], set[str]]:
    """Runtime catalog references: fault points armed by any scenario
    and edges claimed by any fleet scenario's ``edges`` declaration."""
    armed: set[str] = set()
    claimed: set[str] = set()
    from repro.faultinject.scenarios import SCENARIOS
    from repro.fleet.scenarios import FLEET_SCENARIOS

    for scenario in SCENARIOS.values():
        armed.update(scenario.points)
    for scenario in FLEET_SCENARIOS.values():
        armed.update(scenario.points)
        claimed.update(getattr(scenario, "edges", ()))
    return armed, claimed


def build_ft_inventory(sources: Mapping[str, str]) -> FtInventory:
    """Layer 1: enumerate the failure-handling surface of *sources*."""
    inv = FtInventory()
    inv.armed_points, inv.claimed_edges = _armed_and_claimed()
    try:
        from repro.faultinject.points import FAULT_POINTS

        runtime_registry = set(FAULT_POINTS)
    except Exception:  # pragma: no cover - registry import is load-bearing
        runtime_registry = set()

    parsed = {
        path: (tree, text.splitlines())
        for path, text, tree in parse_each(sources, inv.problems)
    }

    # Pass 1: registry entries, MEMBER_STATES / MEMBER_EDGES declarations
    # (registries are annotated ``FAULT_POINTS: dict[...] = {...}``).
    for path, (tree, lines) in parsed.items():
        for target, value, _ in assignments(tree.body):
            if (
                target in ("FAULT_POINTS", "FLEET_FAULT_POINTS")
                and path.endswith("faultinject/points.py")
                and isinstance(value, ast.Dict)
            ):
                for key in value.keys:
                    if not (isinstance(key, ast.Constant)
                            and isinstance(key.value, str)):
                        continue
                    inv.registry.add(key.value)
                    inv.add(FtSite(
                        kind="point", path=path, line=key.lineno,
                        col=key.col_offset, node=key, name=key.value,
                        auto=("exercised" if key.value in inv.armed_points
                              else None),
                    ), lines)
            elif (
                target == "MEMBER_STATES"
                and path.endswith("fleet/controller.py")
            ):
                states = _parse_string_tuple(value)
                if states:
                    inv.member_states.update(states)
            elif (
                target == "MEMBER_EDGES"
                and path.endswith("fleet/controller.py")
                and isinstance(value, (ast.Tuple, ast.List))
            ):
                for el in value.elts:
                    pair = (_parse_string_tuple(el)
                            if isinstance(el, ast.Tuple) else None)
                    if pair is None or len(pair) != 2:
                        inv.problems.append(
                            f"{path}:{el.lineno}: MEMBER_EDGES entry is not "
                            f"a (from, to) pair of state literals"
                        )
                        continue
                    name = f"{pair[0]}->{pair[1]}"
                    if name in inv.declared_edges:
                        inv.problems.append(
                            f"{path}:{el.lineno}: duplicate MEMBER_EDGES "
                            f"entry {name}"
                        )
                    inv.declared_edges.add(name)
                    inv.add(FtSite(
                        kind="edge", path=path, line=el.lineno,
                        col=el.col_offset, node=el, name=name,
                        auto=("exercised" if name in inv.claimed_edges
                              else None),
                    ), lines)

    # Pass 2: call sites, handlers, injects, loops, knobs.
    for path, (tree, lines) in parsed.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                cname = call_name(node)
                if cname == "fault_point" and len(node.args) >= 2:
                    name = _str_arg(node, 1)
                    if name is None:
                        inv.problems.append(
                            f"{path}:{node.lineno}: fault_point() name is "
                            f"not a string literal — the static inventory "
                            f"cannot account for it"
                        )
                        continue
                    inv.add(FtSite(
                        kind="point-site", path=path, line=node.lineno,
                        col=node.col_offset, node=node, name=name,
                        registered=name in runtime_registry,
                        auto="exercised",
                    ), lines)
                elif cname == "_set_state" and len(node.args) >= 2:
                    state = _str_arg(node, 1)
                    if state is None:
                        inv.problems.append(
                            f"{path}:{node.lineno}: _set_state() target is "
                            f"not a string literal — the edge inventory "
                            f"cannot account for it"
                        )
                        continue
                    inv.add(FtSite(
                        kind="setstate", path=path, line=node.lineno,
                        col=node.col_offset, node=node, name=state,
                        auto="exercised",
                    ), lines)
            elif isinstance(node, ast.ExceptHandler):
                hook = _coverage_hook(node.body, "handler")
                reraises = any(
                    isinstance(sub, ast.Raise) for sub in ast.walk(node)
                )
                name = hook if hook is not None else (
                    f"except@{node.lineno}"
                )
                inv.add(FtSite(
                    kind="handler", path=path, line=node.lineno,
                    col=node.col_offset, node=node, name=name, hook=hook,
                    broad=_is_broad(node), reraises=reraises,
                    extra=_render_caught(node),
                    auto="exercised" if hook is not None else None,
                ), lines)
            elif (
                isinstance(node, ast.FunctionDef)
                and node.name.startswith("inject_")
            ):
                hook = _coverage_hook(node.body, "inject")
                inv.add(FtSite(
                    kind="inject", path=path, line=node.lineno,
                    col=node.col_offset, node=node, name=node.name, hook=hook,
                    auto="exercised" if hook is not None else None,
                ), lines)
            elif isinstance(node, ast.While):
                if isinstance(node.test, ast.Constant):
                    continue  # `while True:` event loops exit via recv/break
                if not any(_yields_timeout(stmt) for stmt in node.body
                           if not isinstance(stmt, (ast.While, ast.For))):
                    continue
                if _test_is_bounded(node.test):
                    continue
                if any(isinstance(sub, ast.Break) for sub in ast.walk(node)):
                    continue
                inv.add(FtSite(
                    kind="loop", path=path, line=node.lineno,
                    col=node.col_offset, node=node,
                    name=f"while@{node.lineno}",
                ), lines)
        for target, value, node in assignments(tree.body):
            if target.startswith("UNSAFE_") and isinstance(value, ast.Constant):
                inv.add(FtSite(
                    kind="knob", path=path, line=node.lineno,
                    col=node.col_offset, node=node, name=target,
                    extra=str(value.value),
                ), lines)
    return inv


# --------------------------------------------------------------------------- #
# Layer 2 — rules                                                             #
# --------------------------------------------------------------------------- #


@register
class SwallowedRecoveryException(InventoryRule):
    rule_id = "FTC001"
    summary = ("broad except on a recovery path swallows the failure — no "
               "re-raise, no coverage hook, no declared class; a masked "
               "fault here ships a silent correctness gap")

    def message(self, site, inventory):
        if (site.kind == "handler" and site.broad
                and not (site.reraises or site.accounted)):
            return (f"broad except ({site.extra}) on a recovery path swallows "
                    f"failures without re-raise or coverage hook — classify it "
                    f"('# ft: <class> -- why') or re-raise")
        return None


@register
class UnarmedFaultPoint(InventoryRule):
    rule_id = "FTC002"
    summary = ("registered fault point armed by zero catalog scenarios "
               "(or an UNSAFE_* knob that can drop one) — its failure "
               "mode has no dynamic witness")

    def message(self, site, inventory):
        if site.kind == "point" and not (
            site.accounted or site.name in inventory.armed_points
        ):
            return (f"registered fault point '{site.name}' is armed by "
                    f"zero catalog scenarios — its failure mode is "
                    f"untested; add a scenario that arms it or remove the "
                    f"registry entry")
        if site.kind == "knob" and not site.accounted:
            return (f"catalog knob {site.name} can drop scenario "
                    f"'{site.extra}' from the fault-injection catalog — a "
                    f"dropped scenario's fault points lose their only "
                    f"dynamic witness")
        return None


@register
class UnclaimedStateEdge(InventoryRule):
    rule_id = "FTC003"
    summary = ("declared state-machine edge claimed by no fleet "
               "scenario's edges declaration — no campaign drives the "
               "transition")

    def message(self, site, inventory):
        if site.kind == "edge" and not (
            site.accounted or site.name in inventory.claimed_edges
        ):
            return (f"state-machine edge {site.name} is claimed by no fleet "
                    f"scenario — no campaign drives this transition; add a "
                    f"scenario declaring edges=({site.name!r},) or file the "
                    f"gap with '# ft: backlog -- scenario: <name>'")
        return None


@register
class UnboundedWaitLoop(InventoryRule):
    rule_id = "FTC004"
    summary = ("wait loop with no deadline in its test and no break — a "
               "silent hang here wedges recovery instead of failing it")

    def message(self, site, inventory):
        if site.kind == "loop" and not site.accounted:
            return (f"wait loop at {site.name} has no deadline in its test "
                    f"and no break — a silent hang here wedges recovery; "
                    f"bound it or annotate '# ft: bounded -- why'")
        return None


@register
class UnobservableInject(InventoryRule):
    rule_id = "FTC005"
    summary = ("inject_* entry point with no coverage_mark hook — no "
               "oracle can prove any scenario exercises it")

    def message(self, site, inventory):
        if site.kind == "inject" and not site.accounted:
            return (f"{site.name}() is an inject entry point with no "
                    f"coverage_mark hook — no oracle can prove any scenario "
                    f"exercises it; add a hook or classify the site")
        return None


FTCOV_RULE_IDS = ("FTC001", "FTC002", "FTC003", "FTC004", "FTC005")


# --------------------------------------------------------------------------- #
# Layer 2 — driver                                                            #
# --------------------------------------------------------------------------- #


def analyze_ftcov(
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    overrides: Mapping[str, str] | None = None,
) -> InventoryReport:
    """Run Layers 1, 1½ and 2: inventory, selfcheck, then the FTC rules
    over every file."""
    return analyze_sites(FTCOV_RULE_IDS, FTCOV_SCOPE, build_ft_inventory,
                         select, ignore, overrides)
