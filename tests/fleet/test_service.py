"""open_fleet's one prologue and FleetCell's shared oracle list."""

import pytest

from repro.fleet import FleetSpec, PlacementDecision, open_fleet
from repro.sim.units import ms, sec

#: Two members on disjoint host pairs, services only (no clients): losing
#: node0 and node1 together kills svc0 and leaves svc1 protected.
FLEET = FleetSpec(n_containers=2, n_hosts=4, slots_per_host=4)
DECISIONS = (PlacementDecision("svc0", "node0", "node1"),
             PlacementDecision("svc1", "node2", "node3"))


@pytest.fixture(scope="module")
def svc0_lost():
    cell = open_fleet(3, FLEET, decisions=DECISIONS)
    cell.fail_host_at(ms(500), lambda: ("node0", "node1"))
    cell.run(sec(2))
    return cell


def test_fail_host_at_logs_one_instant(svc0_lost):
    assert svc0_lost.failstops == [(ms(500), ("node0", "node1"))]
    states = {n: m.state for n, m in svc0_lost.controller.members.items()}
    assert states == {"svc0": "dead", "svc1": "protected"}


def test_violations_report_a_member_that_ends_unprotected(svc0_lost):
    assert svc0_lost.violations() == ["svc0: ended dead, expected protected"]
    assert svc0_lost.violations(expect_dead=("svc0",)) == []


def test_violations_report_an_expected_death_that_did_not_happen(svc0_lost):
    assert svc0_lost.violations(expect_dead=("svc0", "svc1")) == [
        "svc1: expected dead, is protected"]


def test_violations_report_a_tracer_that_dropped_events():
    cell = open_fleet(3, FLEET, decisions=DECISIONS, trace_limit=10)
    cell.run(ms(300))
    assert cell.tracer.dropped > 0
    (problem,) = cell.violations()
    assert problem.startswith(f"tracer dropped {cell.tracer.dropped} event(s)")


def test_no_tracer_unless_asked_and_clients_only_when_asked():
    cell = open_fleet(3, FLEET, decisions=DECISIONS)
    assert cell.tracer is None and cell.world.engine.tracer is None
    assert cell.workload.stats == {}
    with_clients = open_fleet(3, FLEET, decisions=DECISIONS, n_requests=5)
    with_clients.run(sec(1))
    assert with_clients.workload.total_completed() == 10
    assert with_clients.violations() == []
