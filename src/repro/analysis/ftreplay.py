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
simulated time and no trace events, so armed runs keep their golden
digests.

:func:`run_ftcov_record` drives the full catalogs — every pair-level
fault-injection scenario, every fleet scenario, and the traffic
failover/migration profiles — under one shared recorder, then
cross-references the merged counters against the static inventory:

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

The ``drop-scenario`` knob (``UNSAFE_DROP_SCENARIO``) silently removes
the only scenario arming ``backup.mid_commit`` from the pair catalog;
the knob run *passes* only if the crossref reports exactly that fired
gap — the dynamic witness paired with the FTC002 baseline entry.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.sim.profiler import counter_digest

__all__ = [
    "FTCOV_KNOBS",
    "FtcovRecorder",
    "crossref_coverage",
    "format_report",
    "run_ftcov_record",
]

#: Knob name -> what the seeded gap must look like.
FTCOV_KNOBS = ("drop-scenario",)

#: Campaign constants: one deterministic cell per pair scenario (the
#: campaign's own first seed and workload), the fleet default seed, the
#: traffic default seed.
_PAIR_WORKLOAD = "net-echo"
_PAIR_SEED = 101
_FLEET_SEED = 7
_TRAFFIC_SEED = 1


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
    inventory: Any = None,
) -> dict[str, Any]:
    """Cross-reference recorded *counters* against the L1 inventory.

    Pure on its inputs (the inventory is built fresh only when not
    passed), so the gap logic is unit-testable on synthetic counters.
    """
    if inventory is None:
        from repro.analysis.ftcov import FTCOV_SCOPE, build_ft_inventory
        from repro.analysis.inventory import load_sources

        inventory = build_ft_inventory(load_sources(FTCOV_SCOPE))

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


def _pair_point_names() -> set[str]:
    from repro.faultinject.points import FAULT_POINTS, FLEET_FAULT_POINTS

    return set(FAULT_POINTS) - set(FLEET_FAULT_POINTS)


# --------------------------------------------------------------------- #
# The catalog runner                                                     #
# --------------------------------------------------------------------- #


def run_ftcov_record(
    knob: str | None = None,
    pair_scenarios: Iterable[str] | None = None,
    fleet_scenarios: Iterable[str] | None = None,
    traffic_events: Iterable[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run the catalogs under one coverage recorder and gate on crossref.

    Default (no *knob*): the full pair catalog, the full fleet catalog
    and both event-carrying traffic profiles; the gate requires every
    run's own oracles green AND zero coverage gaps.

    ``knob="drop-scenario"``: the pair catalog minus
    ``UNSAFE_DROP_SCENARIO`` (fleet/traffic skipped — the seeded gap
    lives in the pair registry); the gate *passes* only when the
    crossref reports exactly the dropped scenario's fired gap.

    The scenario subsets exist for the determinism test (same subset
    twice -> identical digest), not for production use.
    """
    if knob is not None and knob not in FTCOV_KNOBS:
        raise KeyError(f"unknown ftcov knob {knob!r} (use {FTCOV_KNOBS})")

    from repro.experiments.faultcampaign import run_phase_injection
    from repro.experiments.traffic import run_traffic_event
    from repro.faultinject.scenarios import (
        UNSAFE_DROP_SCENARIO,
        scenario_names,
    )
    from repro.fleet.scenarios import FLEET_SCENARIOS, run_fleet_scenario
    from repro.net.world import reset_id_counters

    recorder = FtcovRecorder()
    runs: list[dict[str, Any]] = []

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    pair_names = (list(pair_scenarios) if pair_scenarios is not None
                  else scenario_names())
    fleet_names = (list(fleet_scenarios) if fleet_scenarios is not None
                   else list(FLEET_SCENARIOS))
    events = (list(traffic_events) if traffic_events is not None
              else ["failover", "migration"])
    if knob == "drop-scenario":
        pair_names = [n for n in pair_names if n != UNSAFE_DROP_SCENARIO]
        fleet_names = []
        events = []

    for name in pair_names:
        note(f"pair {name}")
        reset_id_counters()
        cell = run_phase_injection(
            _PAIR_WORKLOAD, name, _PAIR_SEED, instrument=recorder.install
        )
        runs.append({
            "kind": "pair", "name": name, "ok": cell.ok,
            "violations": list(cell.violations),
        })
    for name in fleet_names:
        note(f"fleet {name}")
        reset_id_counters()
        result = run_fleet_scenario(
            name, seed=_FLEET_SEED, instrument=recorder.install
        )
        runs.append({
            "kind": "fleet", "name": name, "ok": result.ok,
            "violations": list(result.violations),
        })
    for event in events:
        note(f"traffic {event}")
        result = run_traffic_event(
            event, seed=_TRAFFIC_SEED, instrument=recorder.install
        )
        violations = list(result["violations"])
        runs.append({
            "kind": "traffic", "name": event, "ok": not violations,
            "violations": violations,
        })

    crossref = crossref_coverage(recorder.counters)
    runs_ok = all(run["ok"] for run in runs)

    if knob == "drop-scenario":
        # Polarity gate: with the catalog mutilated, the *absence* of the
        # seeded gap is the failure.  Only pair-registry gaps count (the
        # fleet/traffic catalogs were deliberately not run).
        pair_points = _pair_point_names()
        pair_gaps = sorted(
            g for g in crossref["gaps"]
            if g.split(":", 1)[0] in ("point-unreached", "point-unfired")
            and g.split(":", 2)[1].split(" ")[0] in pair_points
        )
        expected = (
            f"point-unfired:{UNSAFE_DROP_SCENARIO.split('@', 1)[1]}"
        )
        seeded = [g for g in pair_gaps if g.startswith(expected)]
        unexpected = [g for g in pair_gaps if not g.startswith(expected)]
        ok = runs_ok and bool(seeded) and not unexpected
        verdict = {
            "expected_gap": expected,
            "seeded_gap_detected": bool(seeded),
            "unexpected_gaps": unexpected,
        }
    else:
        ok = runs_ok and not crossref["gaps"]
        verdict = {}

    return {
        "mode": "knob" if knob else "record",
        "knob": knob,
        "runs": runs,
        "runs_ok": runs_ok,
        "counters": dict(sorted(recorder.counters.items())),
        "digest": recorder.digest(),
        "ok": ok,
        **verdict,
        **crossref,
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable coverage matrix for the CLI."""
    lines: list[str] = []
    failed = [r for r in report["runs"] if not r["ok"]]
    lines.append(
        f"ftcov {report['mode']}: {len(report['runs'])} catalog run(s), "
        f"{len(failed)} failed, digest {report['digest']}"
    )
    for run in failed:
        lines.append(f"  FAIL {run['kind']}:{run['name']}")
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
    if report["mode"] == "knob":
        lines.append(
            f"knob gate: expected {report['expected_gap']} — "
            f"{'detected' if report['seeded_gap_detected'] else 'MISSING'}"
        )
        for gap in report.get("unexpected_gaps", ()):
            lines.append(f"  unexpected gap: {gap}")
    else:
        for gap in report["gaps"]:
            lines.append(f"  GAP: {gap}")
    if report["missing_scenarios"]:
        lines.append("missing-scenario backlog (annotated, not gating):")
        for entry in report["missing_scenarios"]:
            lines.append(
                f"  {entry['edge']:<38} -> {entry['scenario']}"
            )
    lines.append("ftcov: OK" if report["ok"] else "ftcov: FAIL")
    return "\n".join(lines)
