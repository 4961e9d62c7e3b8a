"""Fleet fault scenarios: orchestration-layer failure modes.

The pair-level catalog (:mod:`repro.faultinject.scenarios`) attacks the
replication protocol; these attack the *controller* — crash it mid
re-protection, cut a migration link mid-transfer, exhaust the spare pool,
kill two primaries in the same instant.  Every scenario runs a full fleet
with per-member validating clients, and the runner applies the same base
oracles to all of them: no acknowledged write lost, no split brain, and
every survivable failure ends re-protected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.faultinject.plan import FaultPlan, PointFault
from repro.fleet.controller import FleetController
from repro.fleet.placement import PlacementDecision
from repro.fleet.service import FleetCell, open_fleet
from repro.fleet.spec import FleetSpec
from repro.net.world import World
from repro.replication.config import NiliconConfig
from repro.sim.units import ms, sec

__all__ = ["FLEET_SCENARIOS", "FleetScenario", "FleetScenarioResult",
           "run_fleet_scenario"]


@dataclass(frozen=True)
class FleetScenario:
    """One orchestration-layer fault experiment."""

    name: str
    description: str
    fleet: FleetSpec
    #: Fault points this scenario exercises (for coverage accounting).
    points: tuple[str, ...]
    make_plan: Callable[[World, FleetController], FaultPlan]
    #: Spawns the scenario's failure/migration timeline on the cell's
    #: engine; every fail-stop goes through :meth:`FleetCell.fail_host_at`.
    schedule: Callable[[FleetCell], None]
    #: Scenario-specific assertions; returns violations (empty = pass).
    check: Callable[[FleetController, FaultPlan], list[str]]
    #: Fixed placement override (None = run the placement policy).
    decisions: tuple[PlacementDecision, ...] | None = None
    run_until_us: int = sec(3)
    n_requests: int = 30
    #: Dead members this scenario *expects* (unsurvivable by design).
    expect_dead: tuple[str, ...] = ()
    #: ``"from->to"`` MEMBER_EDGES transitions this scenario claims to
    #: drive.  The ftcov analyzer holds the catalog to these claims: every
    #: non-backlog edge in MEMBER_EDGES must be claimed by some scenario
    #: (FTC003), and the dynamic coverage run must observe every claimed
    #: edge actually happen.
    edges: tuple[str, ...] = ()


@dataclass
class FleetScenarioResult:
    scenario: str
    seed: int
    ok: bool
    violations: list[str] = field(default_factory=list)
    plan_log: list[str] = field(default_factory=list)
    states: dict[str, str] = field(default_factory=dict)
    completed: int = 0


FLEET_SCENARIOS: dict[str, FleetScenario] = {}


def _register(scenario: FleetScenario) -> FleetScenario:
    FLEET_SCENARIOS[scenario.name] = scenario
    return scenario


def run_fleet_scenario(
    name: str,
    seed: int = 7,
    config: NiliconConfig | None = None,
    instrument: Callable[[World], None] | None = None,
) -> FleetScenarioResult:
    """Run one fleet scenario end to end and evaluate all its oracles.

    The world comes from :func:`~repro.fleet.service.open_fleet`, which
    rewinds the identity counters first, so a scenario's numbers do not
    depend on what ran before it in the process.  *instrument* (if given)
    is called with the freshly built :class:`World` before anything runs —
    the ftcov coverage recorder installs itself through this hook.
    """
    scenario = FLEET_SCENARIOS[name]
    cell = open_fleet(seed, scenario.fleet, config=config,
                      decisions=scenario.decisions, instrument=instrument,
                      n_requests=scenario.n_requests)
    world, controller = cell.world, cell.controller
    plan = scenario.make_plan(world, controller).arm(world.engine)
    scenario.schedule(cell)
    cell.run(scenario.run_until_us)
    plan.disarm()

    violations = cell.violations(expect_dead=scenario.expect_dead)
    if scenario.points and not plan.log:
        violations.append("fault plan never fired")
    violations += scenario.check(controller, plan)

    return FleetScenarioResult(
        scenario=name,
        seed=seed,
        ok=not violations,
        violations=violations,
        plan_log=list(plan.log),
        states={n: m.state for n, m in sorted(controller.members.items())},
        completed=cell.workload.total_completed(),
    )


# --------------------------------------------------------------------- #
# Schedule helpers                                                       #
# --------------------------------------------------------------------- #
def _failstop_svc0_primary(cell: FleetCell) -> None:
    """Fail-stop svc0's primary host (whichever it is by then) at 600 ms."""
    cell.fail_host_at(
        ms(600), lambda: (cell.controller.members["svc0"].primary,))


def _failstop_then_grow(host: str) -> Callable[[FleetCell], None]:
    """Fail-stop *host* at 600 ms; capacity returns at 1.5 s, and the
    control loop must re-protect on its own."""

    def schedule(cell: FleetCell) -> None:
        cell.fail_host_at(ms(600), host)
        cell.world.engine.call_later(ms(1500), cell.pool.add_host)

    return schedule


def _migrate_svc0_to_node2(cell: FleetCell) -> None:
    """Start a planned migration of svc0 onto node2 at 600 ms."""
    engine = cell.world.engine

    def timeline() -> Generator[Any, Any, None]:
        yield engine.timeout(ms(600))
        dest = cell.pool.host("node2")
        yield from cell.controller.migrate_container(
            "svc0", dest, abort_timeout_us=ms(300)
        )

    engine.process(timeline(), name="migrate-svc0")


def _expect(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


# --------------------------------------------------------------------- #
# 1. Controller crash mid-re-protection                                  #
# --------------------------------------------------------------------- #
def _crash_check(controller: FleetController, plan: FaultPlan) -> list[str]:
    svc0 = controller.members["svc0"]
    return (
        _expect(controller.controller_restarts >= 1,
                "controller was never restarted")
        + _expect(svc0.failovers + svc0.reprotects >= 1,
                  "no member ever failed over")
    )


_register(FleetScenario(
    name="fleet.controller_crash_mid_reprotect",
    description=(
        "The controller process is killed at fleet.mid_reprotect — after "
        "committing the replacement-backup slot, before re-protection "
        "finishes.  The supervisor restarts it and the persisted member "
        "intent must converge without double-allocating."
    ),
    fleet=FleetSpec(n_containers=4, n_hosts=4, slots_per_host=4),
    points=("fleet.mid_reprotect",),
    make_plan=lambda world, controller: FaultPlan(
        points=[PointFault(point="fleet.mid_reprotect", kill=True)]
    ),
    schedule=_failstop_svc0_primary,
    check=_crash_check,
    edges=(
        "deploying->protected",
        "protected->reprotect_pending",
        "reprotect_pending->reprotecting",
        "reprotecting->protected",
    ),
))


# --------------------------------------------------------------------- #
# 2. Stalled re-protection decision                                      #
# --------------------------------------------------------------------- #
def _stall_check(controller: FleetController, plan: FaultPlan) -> list[str]:
    stalled = [
        m for m in controller.members.values()
        if any(lat >= ms(200) for lat in m.reprotect_latencies_us)
    ]
    return _expect(bool(stalled),
                   "no member's re-protection absorbed the 200ms stall")


_register(FleetScenario(
    name="fleet.stall_pre_reprotect",
    description=(
        "The re-protection decision stalls 200 ms at fleet.pre_reprotect "
        "(slow controller).  The member stays correct — just unprotected "
        "for longer — and the stall shows up in its re-protect latency."
    ),
    fleet=FleetSpec(n_containers=4, n_hosts=4, slots_per_host=4),
    points=("fleet.pre_reprotect",),
    make_plan=lambda world, controller: FaultPlan(
        points=[PointFault(point="fleet.pre_reprotect", stall_us=ms(200))]
    ),
    schedule=_failstop_svc0_primary,
    check=_stall_check,
    edges=(
        "deploying->protected",
        "protected->reprotect_pending",
        "reprotect_pending->reprotecting",
        "reprotecting->protected",
    ),
))


# --------------------------------------------------------------------- #
# 3. Spare pool exhausted -> degraded -> capacity returns                #
# --------------------------------------------------------------------- #
def _exhausted_check(controller: FleetController, plan: FaultPlan) -> list[str]:
    problems = []
    for member in controller.members.values():
        problems += _expect(
            member.degraded_us > 0,
            f"{member.name} never ran degraded (degraded_us=0)",
        )
        problems += _expect(
            member.reprotects >= 1,
            f"{member.name} was never re-protected after capacity returned",
        )
    return problems


_register(FleetScenario(
    name="fleet.pool_exhausted_degraded",
    description=(
        "Both members' backup host dies and no spare has a free slot: the "
        "members must keep serving *degraded* (unprotected), then be "
        "re-protected automatically when a host is added to the pool."
    ),
    fleet=FleetSpec(n_containers=2, n_hosts=2, slots_per_host=2),
    points=("fleet.pool_exhausted",),
    make_plan=lambda world, controller: FaultPlan(
        points=[PointFault(point="fleet.pool_exhausted")]
    ),
    # node1 backs *both* members: repairs find no candidate.
    schedule=_failstop_then_grow("node1"),
    check=_exhausted_check,
    run_until_us=sec(4),
    edges=(
        "deploying->protected",
        "protected->repair_pending",
        "repair_pending->degraded",
        "degraded->repairing",
        "repairing->protected",
    ),
))


# --------------------------------------------------------------------- #
# 3b. Failover into an exhausted pool -> degraded -> capacity returns    #
# --------------------------------------------------------------------- #
def _failover_exhausted_check(controller: FleetController,
                              plan: FaultPlan) -> list[str]:
    problems = []
    for member in controller.members.values():
        problems += _expect(
            member.failovers == 1,
            f"{member.name}: failovers={member.failovers}, expected 1",
        )
        problems += _expect(
            member.degraded_us > 0,
            f"{member.name} never ran degraded (degraded_us=0)",
        )
        problems += _expect(
            member.reprotects >= 1,
            f"{member.name} was never re-protected after capacity returned",
        )
    return problems


_register(FleetScenario(
    name="fleet.failover_pool_exhausted",
    description=(
        "Both members' primary host dies; both fail over onto the single "
        "surviving host and their re-protections find no free slot.  The "
        "members must keep serving degraded *from the re-protect path* "
        "(reprotect_pending -> degraded, the edge the repair-side "
        "exhaustion scenario cannot reach), then re-protect automatically "
        "when a host is added (degraded -> reprotecting)."
    ),
    fleet=FleetSpec(n_containers=2, n_hosts=2, slots_per_host=2),
    points=("fleet.pool_exhausted",),
    decisions=(
        PlacementDecision("svc0", "node0", "node1"),
        PlacementDecision("svc1", "node0", "node1"),
    ),
    make_plan=lambda world, controller: FaultPlan(
        points=[PointFault(point="fleet.pool_exhausted")]
    ),
    # Both primaries live on node0; killing it makes both members fail
    # over onto node1 — whose slots their backups already occupy.  The
    # re-protection path (not the repair path) then finds the pool
    # exhausted.
    schedule=_failstop_then_grow("node0"),
    check=_failover_exhausted_check,
    run_until_us=sec(4),
    edges=(
        "deploying->protected",
        "protected->reprotect_pending",
        "reprotect_pending->degraded",
        "degraded->reprotecting",
        "reprotecting->protected",
    ),
))


# --------------------------------------------------------------------- #
# 4. Migration link cut mid-transfer                                     #
# --------------------------------------------------------------------- #
def _migration_cut_plan(world: World, controller: FleetController) -> FaultPlan:
    def cut_migration_link(engine) -> None:
        member = controller.members["svc0"]
        source = controller.pool.host(member.primary)
        dest = controller.pool.host("node2")
        controller.pool.channel_between(source, dest).cut()

    return FaultPlan(points=[
        PointFault(point="fleet.pre_migrate", action=cut_migration_link)
    ])


def _migration_cut_check(controller: FleetController, plan: FaultPlan) -> list[str]:
    svc0 = controller.members["svc0"]
    return (
        _expect(svc0.migration_aborts == 1,
                f"expected 1 aborted migration, got {svc0.migration_aborts}")
        + _expect(svc0.migrations == 0,
                  "migration reported success over a cut link")
        + _expect(svc0.primary == "node0",
                  f"svc0 primary moved to {svc0.primary} despite the abort")
        + _expect(svc0.reprotects >= 1,
                  "svc0 was not re-protected in place after the abort")
    )


_register(FleetScenario(
    name="fleet.link_cut_during_migration",
    description=(
        "The migration link is cut the moment a planned migration starts: "
        "the transfer hangs, the controller aborts and rolls back, and the "
        "member is re-protected in place with no acknowledged write lost."
    ),
    fleet=FleetSpec(n_containers=2, n_hosts=3, slots_per_host=2),
    points=("fleet.pre_migrate",),
    # Pinned so the node0-node2 migration link carries *only* the
    # migration: cutting a link shared with another member's replication
    # pair would (correctly) partition that pair instead.
    decisions=(
        PlacementDecision("svc0", "node0", "node1"),
        PlacementDecision("svc1", "node1", "node2"),
    ),
    make_plan=_migration_cut_plan,
    schedule=_migrate_svc0_to_node2,
    check=_migration_cut_check,
    run_until_us=sec(4),
    edges=(
        "deploying->protected",
        "protected->migrating",
        "migrating->repair_pending",
        "repair_pending->repairing",
        "repairing->protected",
    ),
))


# --------------------------------------------------------------------- #
# 5. Two simultaneous primary fail-stops sharing one backup host         #
# --------------------------------------------------------------------- #
def _double_check(controller: FleetController, plan: FaultPlan) -> list[str]:
    problems = []
    for name in ("svc0", "svc1"):
        member = controller.members[name]
        problems += _expect(member.failovers == 1,
                            f"{name}: failovers={member.failovers}, expected 1")
        problems += _expect(member.primary == "node2",
                            f"{name}: primary={member.primary}, expected node2")
        problems += _expect(member.reprotects == 1,
                            f"{name}: reprotects={member.reprotects}")
    return problems


_register(FleetScenario(
    name="fleet.double_failure_shared_backup",
    description=(
        "Two members on different primary hosts share one backup host; "
        "both primaries fail-stop in the same instant.  Both failovers "
        "restore onto the shared host and both re-protections must land "
        "on the one remaining spare without double-booking its slots."
    ),
    fleet=FleetSpec(n_containers=2, n_hosts=4, slots_per_host=2),
    points=(),
    decisions=(
        PlacementDecision("svc0", "node0", "node2"),
        PlacementDecision("svc1", "node1", "node2"),
    ),
    make_plan=lambda world, controller: FaultPlan(),
    # Same instant: both primaries die; both detectors live on node2.
    schedule=lambda cell: cell.fail_host_at(ms(600), lambda: ("node0", "node1")),
    check=_double_check,
    run_until_us=sec(4),
    edges=(
        "deploying->protected",
        "protected->reprotect_pending",
        "reprotect_pending->reprotecting",
        "reprotecting->protected",
    ),
))


# --------------------------------------------------------------------- #
# 6. Replacement backup fail-stops *during* re-protection                #
# --------------------------------------------------------------------- #
def _reprotect_backup_killer(world: World, controller: FleetController) -> FaultPlan:
    def kill_new_backup(engine) -> None:
        # At fleet.mid_reprotect the replacement's slot is committed in the
        # persisted intent but the new pairing has not started.
        member = controller.members["svc0"]
        backup_name = (member.intent or {}).get("backup")
        controller.inject_host_failstop(controller.pool.host(backup_name))

    return FaultPlan(points=[
        PointFault(point="fleet.mid_reprotect", action=kill_new_backup)
    ])


def _backup_failstop_check(controller: FleetController, plan: FaultPlan) -> list[str]:
    svc0 = controller.members["svc0"]
    return (
        _expect(svc0.failovers == 1,
                f"svc0: failovers={svc0.failovers}, expected 1")
        + _expect(svc0.reprotects >= 2,
                  f"svc0: reprotects={svc0.reprotects}, expected >= 2 "
                  f"(dead re-protection generation plus its repair)")
        + _expect(svc0.backup == "node2",
                  f"svc0: backup={svc0.backup}, expected node2 (spread "
                  f"policy after node0 and node4 died)")
    )


_register(FleetScenario(
    name="fleet.backup_failstop_during_reprotect",
    description=(
        "svc0's primary fail-stops; failover restores onto its backup and "
        "re-protection picks the idle spare — which fail-stops at "
        "fleet.mid_reprotect, before the new pairing commits anything.  "
        "The dead-on-arrival generation must neither wedge the container "
        "(quiesce resolves its receipts) nor spuriously fail over (the "
        "detector only arms after a first commit); the next scan repairs "
        "onto a live host and acknowledged output survives throughout."
    ),
    fleet=FleetSpec(n_containers=2, n_hosts=5, slots_per_host=2),
    points=("fleet.mid_reprotect",),
    # Pinned so node4 is the idle spare the re-protection must pick
    # (spread: zero load, zero pair count) — the scenario kills exactly
    # the chosen replacement, not a host with other tenants.
    decisions=(
        PlacementDecision("svc0", "node0", "node1"),
        PlacementDecision("svc1", "node2", "node3"),
    ),
    make_plan=_reprotect_backup_killer,
    schedule=_failstop_svc0_primary,
    check=_backup_failstop_check,
    run_until_us=sec(4),
    edges=(
        "deploying->protected",
        "protected->reprotect_pending",
        "reprotect_pending->reprotecting",
        "reprotecting->protected",
        "protected->repair_pending",
        "repair_pending->repairing",
        "repairing->protected",
    ),
))


# --------------------------------------------------------------------- #
# 7. Migration destination fail-stops after the slot reservation         #
# --------------------------------------------------------------------- #
def _dest_failstop_plan(world: World, controller: FleetController) -> FaultPlan:
    def kill_dest(engine) -> None:
        # The primary-next reservation just committed; the destination dies
        # before cutover.  This also takes svc1's backup with it.
        controller.inject_host_failstop(controller.pool.host("node2"))

    return FaultPlan(points=[
        PointFault(point="fleet.post_reserve", action=kill_dest)
    ])


def _dest_failstop_check(controller: FleetController, plan: FaultPlan) -> list[str]:
    svc0 = controller.members["svc0"]
    svc1 = controller.members["svc1"]
    return (
        _expect(svc0.migration_aborts == 1,
                f"svc0: expected 1 aborted migration, got {svc0.migration_aborts}")
        + _expect(svc0.migrations == 0,
                  "svc0: migration reported success onto a dead host")
        + _expect(svc0.primary == "node0",
                  f"svc0: primary moved to {svc0.primary} despite the abort")
        + _expect(svc0.reprotects >= 1,
                  "svc0 was not re-protected in place after the abort")
        + _expect(svc1.reprotects >= 1,
                  "svc1 (backup on the dead destination) was never repaired")
    )


_register(FleetScenario(
    name="fleet.dest_failstop_during_migration",
    description=(
        "The migration destination host fail-stops at fleet.post_reserve — "
        "after the primary-next slot reservation commits, before cutover "
        "begins.  The transfer hangs into the abort timeout, the "
        "reservation is released, the member rolls back and re-protects "
        "in place; a bystander member whose backup lived on the dead "
        "destination is repaired concurrently."
    ),
    fleet=FleetSpec(n_containers=2, n_hosts=3, slots_per_host=2),
    points=("fleet.post_reserve",),
    # Same pinning as the link-cut scenario: node2 holds only svc1's
    # backup, so killing it attacks the migration *and* one bystander
    # replication pair, and the two repairs must share the surviving slots.
    decisions=(
        PlacementDecision("svc0", "node0", "node1"),
        PlacementDecision("svc1", "node1", "node2"),
    ),
    make_plan=_dest_failstop_plan,
    schedule=_migrate_svc0_to_node2,
    check=_dest_failstop_check,
    run_until_us=sec(4),
    edges=(
        "deploying->protected",
        "protected->migrating",
        "migrating->repair_pending",
        "repair_pending->repairing",
        "repairing->protected",
    ),
))


# --------------------------------------------------------------------- #
# 8. Both hosts of one pair fail-stop inside a detection window          #
# --------------------------------------------------------------------- #
def _both_hosts_check(controller: FleetController, plan: FaultPlan) -> list[str]:
    svc0 = controller.members["svc0"]
    svc1 = controller.members["svc1"]
    return (
        _expect(svc0.dead_reason == "both hosts failed",
                f"svc0: dead_reason={svc0.dead_reason!r}, expected "
                f"'both hosts failed'")
        + _expect(svc0.failovers == 0,
                  "svc0: a failover ran with both hosts dead")
        + _expect(svc1.failovers == 0 and svc1.reprotects == 0,
                  "svc1 (untouched) was disturbed by svc0's double failure")
    )


_register(FleetScenario(
    name="fleet.both_hosts_failstop",
    description=(
        "svc0's primary and backup fail-stop in the same instant — inside "
        "one detection window, so no failover can run.  The controller "
        "must declare the member dead (releasing its slots) rather than "
        "wedge, and the unrelated member must be completely undisturbed.  "
        "Clients finish their requests before the failure, so no "
        "acknowledged output is lost even in the unsurvivable case."
    ),
    fleet=FleetSpec(n_containers=2, n_hosts=4, slots_per_host=2),
    points=(),
    decisions=(
        PlacementDecision("svc0", "node0", "node1"),
        PlacementDecision("svc1", "node2", "node3"),
    ),
    make_plan=lambda world, controller: FaultPlan(),
    # Same instant: primary and backup die before the detector can fire.
    # No copy of svc0 survives — by design, this is the one failure mode
    # NiLiCon does not mask.
    schedule=lambda cell: cell.fail_host_at(ms(900), lambda: ("node0", "node1")),
    check=_both_hosts_check,
    n_requests=12,
    expect_dead=("svc0",),
    edges=(
        "deploying->protected",
        "protected->dead",
    ),
))
