"""Campaign cells: green post-fix, red when an ``unsafe_*`` knob reverts a fix.

The regression half is the PR's proof obligation: re-enabling either
pre-fix behaviour (ack-before-commit, pop-oldest barrier release) must make
its sensitive campaign cell fail its oracles again.
"""

import pytest

from repro.experiments.faultcampaign import run_phase_injection
from repro.faultinject import SCENARIOS
from repro.faultinject.points import FAULT_POINTS, FLEET_FAULT_POINTS
from repro.replication.config import NiliconConfig

WORKLOAD = "net-echo"
SEED = 101


def test_catalog_covers_every_registered_pair_point():
    # Fleet-controller points are exercised by the fleet scenario catalog
    # (tests/fleet/test_scenarios.py), not by pair-level scenarios.
    covered = {point for s in SCENARIOS.values() for point in s.points}
    assert covered == set(FAULT_POINTS) - set(FLEET_FAULT_POINTS)


def test_catalog_has_link_races_for_every_kind():
    prefixes = {name.split(".")[0] for name in SCENARIOS}
    assert "link" in prefixes
    for kind in ("ack", "state", "heartbeat"):
        assert any(kind in name for name in SCENARIOS if name.startswith("link."))


@pytest.mark.parametrize("scenario", [
    "crash@primary.post_freeze",
    "crash@backup.mid_commit",
    "link.drop_ack",
    "link.delay_state",
])
def test_fixed_protocol_survives_cell(scenario):
    cell = run_phase_injection(WORKLOAD, scenario, SEED)
    assert cell.ok, cell.violations
    assert cell.plan_log
    assert cell.failed_over == SCENARIOS[scenario].expect_failover
    assert cell.client_completed > 0


@pytest.mark.parametrize("scenario", [
    "crash@backup.post_ack_pre_commit",
    "crash@backup.mid_commit",
])
def test_ack_before_commit_race_reproduced_by_legacy_knob(scenario):
    config = NiliconConfig.nilicon().with_(unsafe_ack_before_commit=True)
    cell = run_phase_injection(WORKLOAD, scenario, SEED, config=config)
    assert not cell.ok
    assert any("lost committed output" in v for v in cell.violations), cell.violations


@pytest.mark.parametrize("scenario", ["link.dup_ack", "link.drop_ack"])
def test_release_oldest_race_reproduced_by_legacy_knob(scenario):
    config = NiliconConfig.nilicon().with_(unsafe_release_oldest_barrier=True)
    cell = run_phase_injection(WORKLOAD, scenario, SEED, config=config)
    assert not cell.ok, cell.plan_log
