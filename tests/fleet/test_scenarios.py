"""The fleet fault-scenario catalog: every scenario passes its oracles,
and together they cover every declared fleet fault point."""

import pytest

from repro.faultinject.points import FAULT_POINTS
from repro.fleet.scenarios import FLEET_SCENARIOS, run_fleet_scenario
from repro.net.world import reset_id_counters
from repro.sim.trace import install_tracer


@pytest.mark.parametrize("name", sorted(FLEET_SCENARIOS))
def test_scenario_passes_all_oracles(name):
    result = run_fleet_scenario(name, seed=7)
    assert result.ok, result.violations
    assert result.completed > 0


def _traced(name):
    tracers = []
    result = run_fleet_scenario(
        name, seed=7,
        instrument=lambda world: tracers.append(install_tracer(world.engine)))
    return result, tracers[0].timeline()


def test_scenario_after_others_equals_the_scenario_alone():
    """A scenario rewinds the identity counters itself, so any order or
    subset of fleet cells gives the same numbers.  Checkpoint images embed
    pids as decimal strings: without the rewind, the runs in between push
    the ids far enough to change image byte counts in the trace."""
    reset_id_counters()  # start where a fresh process starts
    alone = _traced("fleet.controller_crash_mid_reprotect")
    for name in FLEET_SCENARIOS:
        if name != "fleet.controller_crash_mid_reprotect":
            run_fleet_scenario(name, seed=7)
    assert _traced("fleet.controller_crash_mid_reprotect") == alone


def test_catalog_covers_every_fleet_fault_point():
    fleet_points = {p for p in FAULT_POINTS if p.startswith("fleet.")}
    exercised = {
        point
        for scenario in FLEET_SCENARIOS.values()
        for point in scenario.points
    }
    assert exercised == fleet_points


def test_scenario_points_are_declared():
    for scenario in FLEET_SCENARIOS.values():
        for point in scenario.points:
            assert point in FAULT_POINTS, (scenario.name, point)


def test_scenario_edges_are_declared():
    from repro.fleet.controller import MEMBER_EDGES

    declared = {f"{a}->{b}" for a, b in MEMBER_EDGES}
    for scenario in FLEET_SCENARIOS.values():
        for edge in scenario.edges:
            assert edge in declared, (scenario.name, edge)


def test_member_edges_are_well_formed():
    """deploying is the dataclass-initial state: nothing may re-enter it,
    and every edge endpoint must be a known state."""
    from repro.fleet.controller import MEMBER_EDGES, MEMBER_STATES

    for src, dst in MEMBER_EDGES:
        assert src in MEMBER_STATES and dst in MEMBER_STATES, (src, dst)
        assert dst != "deploying", "no edge may re-enter the initial state"


def test_backup_failstop_during_reprotect_restarts_reprotect():
    """Killing the freshly chosen backup host mid-reprotect must send the
    member back through repair and land it protected on the spare."""
    result = run_fleet_scenario("fleet.backup_failstop_during_reprotect",
                                seed=7)
    assert result.ok, result.violations
    assert result.states == {"svc0": "protected", "svc1": "protected"}


def test_dest_failstop_during_migration_aborts_and_reprotects():
    """Killing the migration destination right after the primary-next
    reservation must abort the cutover, roll back to the old primary and
    re-protect both the migrating member and the collateral victim."""
    result = run_fleet_scenario("fleet.dest_failstop_during_migration",
                                seed=7)
    assert result.ok, result.violations
    assert result.states == {"svc0": "protected", "svc1": "protected"}


def test_both_hosts_failstop_kills_only_that_member():
    result = run_fleet_scenario("fleet.both_hosts_failstop", seed=7)
    assert result.ok, result.violations
    assert result.states == {"svc0": "dead", "svc1": "protected"}


def test_set_state_is_idempotent_on_reentry():
    """Regression: a restarted control loop resuming a half-done reprotect
    re-sets the state it already holds; that must not surface as a
    self-edge in the coverage recorder (or re-notify state listeners)."""
    from repro.analysis.ftreplay import FtcovRecorder

    recorder = FtcovRecorder()
    result = run_fleet_scenario("fleet.controller_crash_mid_reprotect",
                                seed=7, instrument=recorder.install)
    assert result.ok, result.violations
    self_edges = [
        key for key in recorder.counters
        if key.startswith("edge:")
        and len(set(key.split(":", 1)[1].split("->"))) == 1
    ]
    assert self_edges == []


def test_double_failure_resolves_shared_backup_contention():
    """Regression pin for the one scenario with no injection point: two
    simultaneous primary fail-stops whose detectors both live on one
    shared backup host."""
    result = run_fleet_scenario("fleet.double_failure_shared_backup", seed=7)
    assert result.ok, result.violations
    assert result.states == {"svc0": "protected", "svc1": "protected"}
