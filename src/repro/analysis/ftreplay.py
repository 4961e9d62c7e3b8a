"""Recovery-path coverage recorder and catalog runner (``repro ftcov
record``) — the dynamic half of the ftcov analyzer.

The static inventory (:mod:`repro.analysis.ftcov`) enumerates the
failure-handling surface; this module proves the scenario catalogs
actually *walk* it.  A :class:`FtcovRecorder` installs itself on a
world's engine as ``engine._ftcov``; the hooks threaded through the
protocol — :func:`~repro.sim.faults.fault_point` (every point reach),
:meth:`FaultPlan.on_point <repro.faultinject.plan.FaultPlan.on_point>`
(every rule that actually fired), ``FleetController._set_state`` (every
state-machine edge), and the other :func:`~repro.sim.faults.coverage_mark`
calls in recovery handlers and ``inject_*`` entry points — all go through
``coverage_mark``, a single attribute check when no recorder is armed,
the same zero-cost discipline as the engine's observer slot.  The recorder only counts; it adds no
simulated time and no trace events, so armed runs keep their pinned
digests.

:func:`run_ftcov_record` is the one driver of the scenario catalogs —
every pair-level fault-injection scenario over the campaign's workloads
and seeds, every fleet scenario at both fleet seeds, and the traffic
failover/migration profiles.  Each cell runs in its own world under its
own recorder; the merged counters are cross-referenced against the
static inventory:

* every registered fault point must be **reached** (the hook executed)
  and **fired** (some scenario's rule triggered there);
* every non-``backlog`` ``MEMBER_EDGES`` transition must be observed —
  and every ``backlog`` edge must *not* be (a driven backlog edge is a
  stale annotation);
* every hooked handler and ``inject_*`` entry point must be entered.

Each unreached site is a gate failure unless annotated; each ``backlog``
edge is emitted as a *named missing scenario* — the concrete backlog the
ROADMAP "scenario diversity" item asks for.  The coverage matrix digest
is a CRC32 over the sorted counters (:func:`~repro.sim.profiler.
counter_digest`), so two same-catalog runs must agree bit-for-bit.

The drop-scenario probe (``UNSAFE_DROP_SCENARIO``) needs no second run:
the merged counters of every run but that scenario's are the catalog
without it, and their crossref must add exactly the seeded
``point-unfired`` gap — the dynamic witness paired with the FTC002
baseline entry.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, NamedTuple

from repro.sim.profiler import counter_digest

__all__ = [
    "CatalogCell",
    "FtcovRecorder",
    "catalog_cells",
    "crossref_coverage",
    "format_report",
    "merge_counters",
    "probe_drop_scenario",
    "run_ftcov_record",
]


class FtcovRecorder:
    """Counts coverage marks; keyed ``"<kind>:<name>"``.

    Deliberately dumb: a plain counter dict, no timestamps, no engine
    interaction — installing it must not perturb simulated behavior.
    """

    #: Measuring instrument: never part of any profiled hot path.
    __perf_exempt__ = True
    __nd_exempt__ = True

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def record(self, kind: str, name: str) -> None:
        key = f"{kind}:{name}"
        self.counters[key] = self.counters.get(key, 0) + 1

    def install(self, world: Any) -> None:
        """The ``instrument`` hook every catalog runner accepts."""
        world.engine._ftcov = self

    def digest(self) -> str:
        return counter_digest(self.counters)


# --------------------------------------------------------------------- #
# Crossref: merged counters vs static inventory                          #
# --------------------------------------------------------------------- #


def crossref_coverage(
    counters: Mapping[str, int],
    inventory: Any,
) -> dict[str, Any]:
    """Cross-reference recorded *counters* against the L1 inventory.

    Pure on its inputs, so the gap logic is unit-testable on synthetic
    counters and inventories.
    """
    gaps: list[str] = []
    missing_scenarios: list[dict[str, str]] = []
    points: dict[str, dict[str, int]] = {}
    edges_observed = {
        key.split(":", 1)[1]: count
        for key, count in counters.items() if key.startswith("edge:")
    }
    handlers: dict[str, int] = {}
    injects: dict[str, int] = {}

    for site in sorted(inventory.sites, key=lambda s: (s.path, s.line)):
        if site.kind == "point":
            reached = counters.get(f"point:{site.name}", 0)
            fired = counters.get(f"fired:{site.name}", 0)
            points[site.name] = {"reached": reached, "fired": fired}
            if site.site_class != "exercised":
                continue  # annotated exception — accounted statically
            if reached == 0:
                gaps.append(
                    f"point-unreached:{site.name} — no catalog run ever "
                    f"executed this hook site"
                )
            if fired == 0:
                gaps.append(
                    f"point-unfired:{site.name} — reached but no "
                    f"scenario's fault rule ever triggered there"
                )
        elif site.kind == "edge":
            observed = edges_observed.get(site.name, 0)
            if site.annotated == "backlog":
                if observed:
                    gaps.append(
                        f"stale-backlog:{site.name} — annotated as a "
                        f"coverage gap but the catalogs drove it "
                        f"{observed}x; promote it to a claimed edge"
                    )
                else:
                    why = site.why or ""
                    scenario = why.split("scenario:", 1)[-1].strip()
                    missing_scenarios.append(
                        {"edge": site.name, "scenario": scenario}
                    )
            elif site.site_class == "exercised" and observed == 0:
                gaps.append(
                    f"edge-unobserved:{site.name} — claimed by a scenario "
                    f"but never driven by any catalog run"
                )
        elif site.kind == "handler" and site.hook is not None:
            count = counters.get(f"handler:{site.hook}", 0)
            handlers[site.hook] = count
            if count == 0:
                gaps.append(
                    f"handler-unentered:{site.hook} — hooked recovery "
                    f"handler never entered by any catalog run"
                )
        elif site.kind == "inject" and site.hook is not None:
            count = counters.get(f"inject:{site.hook}", 0)
            injects[site.hook] = count
            if count == 0:
                gaps.append(
                    f"inject-unused:{site.hook} — injection entry point "
                    f"never exercised by any catalog run"
                )

    for name in sorted(edges_observed):
        if name not in inventory.declared_edges:
            gaps.append(
                f"undeclared-edge:{name} — observed at runtime but absent "
                f"from MEMBER_EDGES; declare it"
            )

    return {
        "points": points,
        "edges": {
            "declared": sorted(inventory.declared_edges),
            "observed": edges_observed,
        },
        "handlers": handlers,
        "injects": injects,
        "gaps": gaps,
        "missing_scenarios": missing_scenarios,
    }


# --------------------------------------------------------------------- #
# The catalog pass                                                       #
# --------------------------------------------------------------------- #


class CatalogCell(NamedTuple):
    """One run of the record pass: a pair scenario on a server workload,
    a fleet scenario, or the traffic profile carrying event *name*."""

    kind: str
    name: str
    seed: int
    workload: str | None = None


#: Every fleet scenario runs at each of these seeds; both event-carrying
#: traffic profiles run at ``_TRAFFIC_SEED``.
FLEET_SEEDS = (1, 7)
TRAFFIC_EVENTS = ("failover", "migration")
_TRAFFIC_SEED = 1


def catalog_cells(smoke: bool = False) -> list[CatalogCell]:
    """Every cell of the record pass, in run order.

    Pair cells sweep every scenario over ``CAMPAIGN_WORKLOADS x
    CAMPAIGN_SEEDS``; ``smoke`` shrinks that to net-echo x the first three
    seeds, still every scenario and so every pair fault point.  The fleet
    and traffic cells are the same in both.
    """
    from repro.experiments.faultcampaign import (
        CAMPAIGN_SEEDS,
        CAMPAIGN_WORKLOADS,
    )
    from repro.faultinject.scenarios import SCENARIOS
    from repro.fleet.scenarios import FLEET_SCENARIOS

    workloads = CAMPAIGN_WORKLOADS[:1] if smoke else CAMPAIGN_WORKLOADS
    seeds = CAMPAIGN_SEEDS[:3] if smoke else CAMPAIGN_SEEDS
    return (
        [CatalogCell("pair", name, seed, workload)
         for name in SCENARIOS for workload in workloads for seed in seeds]
        + [CatalogCell("fleet", name, seed)
           for name in FLEET_SCENARIOS for seed in FLEET_SEEDS]
        + [CatalogCell("traffic", event, _TRAFFIC_SEED)
           for event in TRAFFIC_EVENTS]
    )


def _run_cell(cell: CatalogCell, instrument: Any) -> list[str]:
    """Run *cell* in its own world; return its oracles' violations."""
    if cell.kind == "pair":
        from repro.experiments.faultcampaign import run_phase_injection

        return run_phase_injection(cell.workload, cell.name, cell.seed,
                                   instrument=instrument).violations
    if cell.kind == "fleet":
        from repro.fleet.scenarios import run_fleet_scenario

        return run_fleet_scenario(cell.name, seed=cell.seed,
                                  instrument=instrument).violations
    from repro.experiments.traffic import run_traffic_event

    return list(run_traffic_event(cell.name, seed=cell.seed,
                                  instrument=instrument)["violations"])


def merge_counters(runs: Iterable[Mapping[str, Any]]) -> dict[str, int]:
    """The sum of the *runs*' per-cell counters, sorted by key."""
    merged: dict[str, int] = {}
    for run in runs:
        for key, count in run["counters"].items():
            merged[key] = merged.get(key, 0) + count
    return dict(sorted(merged.items()))


def probe_drop_scenario(
    runs: Iterable[Mapping[str, Any]],
    gaps: Iterable[str],
    inventory: Any,
) -> dict[str, Any]:
    """The drop-scenario probe, derived from runs already made.

    Every cell has its own recorder, so the catalog without
    ``UNSAFE_DROP_SCENARIO`` has exactly the merged counters of the other
    runs.  Their crossref must add one gap to *gaps* — the seeded
    ``point-unfired`` of the point only that scenario arms — and no
    other; a second scenario arming the point hides it (``MISSING``).
    """
    from repro.faultinject.scenarios import UNSAFE_DROP_SCENARIO

    kept = merge_counters(
        run for run in runs
        if (run["kind"], run["name"]) != ("pair", UNSAFE_DROP_SCENARIO)
    )
    expected = f"point-unfired:{UNSAFE_DROP_SCENARIO.split('@', 1)[1]}"
    known = set(gaps)
    added = [gap for gap in crossref_coverage(kept, inventory)["gaps"]
             if gap not in known]
    detected = any(gap.split(" ", 1)[0] == expected for gap in added)
    unexpected = [gap for gap in added if gap.split(" ", 1)[0] != expected]
    return {
        "expected_gap": expected,
        "seeded_gap_detected": detected,
        "unexpected_gaps": unexpected,
        "ok": detected and not unexpected,
    }


def run_ftcov_record(
    inventory: Any,
    smoke: bool = False,
    cells: Iterable[CatalogCell] | None = None,
) -> dict[str, Any]:
    """Run every catalog cell under its own recorder and gate on the
    crossref of the merged counters against the static *inventory* (the
    one ``analyze_ftcov`` built and selfchecked).

    The gate requires every run's own oracles green, zero coverage gaps
    and a passing drop-scenario probe.  *cells* (default:
    :func:`catalog_cells`) exists for the tests' small subsets.
    """
    runs: list[dict[str, Any]] = []
    for cell in catalog_cells(smoke) if cells is None else cells:
        recorder = FtcovRecorder()
        violations = _run_cell(cell, recorder.install)
        runs.append({**cell._asdict(), "ok": not violations,
                     "violations": violations,
                     "counters": recorder.counters})
    counters = merge_counters(runs)
    crossref = crossref_coverage(counters, inventory)
    probe = probe_drop_scenario(runs, crossref["gaps"], inventory)
    runs_ok = all(run["ok"] for run in runs)
    return {
        "smoke": smoke,
        "runs": runs,
        "runs_ok": runs_ok,
        "counters": counters,
        "digest": counter_digest(counters),
        "drop_probe": probe,
        "ok": runs_ok and not crossref["gaps"] and probe["ok"],
        **crossref,
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable coverage matrix for the CLI."""
    lines: list[str] = []
    failed = [r for r in report["runs"] if not r["ok"]]
    lines.append(
        f"ftcov record{' --smoke' if report['smoke'] else ''}: "
        f"{len(report['runs'])} catalog run(s), {len(failed)} failed, "
        f"{len(report['gaps'])} gap(s), digest {report['digest']}"
    )
    for run in failed:
        where = f"{run['workload']} " if run["workload"] else ""
        lines.append(f"  FAIL {run['kind']}:{run['name']} {where}"
                     f"seed {run['seed']}")
        for violation in run["violations"]:
            lines.append(f"    - {violation}")
    lines.append("fault points (reached/fired):")
    for name, counts in sorted(report["points"].items()):
        lines.append(
            f"  {name:<38} {counts['reached']:>6} / {counts['fired']}"
        )
    observed = report["edges"]["observed"]
    lines.append("state-machine edges:")
    for name in report["edges"]["declared"]:
        lines.append(f"  {name:<38} {observed.get(name, 0):>6}")
    lines.append("handlers entered:")
    for name, count in sorted(report["handlers"].items()):
        lines.append(f"  {name:<38} {count:>6}")
    lines.append("inject entry points:")
    for name, count in sorted(report["injects"].items()):
        lines.append(f"  {name:<38} {count:>6}")
    for gap in report["gaps"]:
        lines.append(f"  GAP: {gap}")
    probe = report["drop_probe"]
    lines.append(
        f"drop-scenario probe: expected {probe['expected_gap']} — "
        f"{'detected' if probe['seeded_gap_detected'] else 'MISSING'}"
    )
    for gap in probe["unexpected_gaps"]:
        lines.append(f"  unexpected gap: {gap}")
    if report["missing_scenarios"]:
        lines.append("missing-scenario backlog (annotated, not gating):")
        for entry in report["missing_scenarios"]:
            lines.append(
                f"  {entry['edge']:<38} -> {entry['scenario']}"
            )
    lines.append("ftcov: OK" if report["ok"] else "ftcov: FAIL")
    return "\n".join(lines)
