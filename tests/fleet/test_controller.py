"""FleetController end-to-end: failover chains, repair, migration."""

from repro.fleet import FleetSpec
from repro.sim.units import ms, sec

from .conftest import assert_clean, at, build_fleet


def test_deploy_protects_every_member(world):
    pool, controller, workload = build_fleet(
        world, FleetSpec(n_containers=3, n_hosts=3, slots_per_host=2),
        n_requests=10,
    )
    world.run(until=sec(1))
    controller.stop()
    assert_clean(controller, workload)
    assert workload.total_completed() == 30
    assert all(m.failovers == 0 for m in controller.members.values())


def test_three_chained_failovers_then_reprotect(world):
    """One member loses its primary host three times in a row; each
    failover must promote the backup, find a fresh spare, and re-protect —
    with the client's acknowledged counter strictly monotonic throughout."""
    spec = FleetSpec(n_containers=1, n_hosts=5, slots_per_host=2)
    pool, controller, workload = build_fleet(
        world, spec, n_requests=25, gap_us=ms(25),
    )
    member = controller.members["svc0"]

    def kill_primary():
        controller.inject_host_failstop(pool.host(member.primary))

    at(world, ms(600), kill_primary)
    at(world, ms(1500), kill_primary)
    at(world, ms(2400), kill_primary)
    world.run(until=ms(3500))
    controller.stop()

    assert member.failovers == 3
    assert member.reprotects >= 3
    assert len(member.deployments) == 4  # initial + one per re-protection
    assert_clean(controller, workload)
    assert workload.stats["svc0"].completed == 25
    # Three dead hosts; the member now runs on the two survivors.
    assert member.primary != member.backup
    assert not pool.host(member.primary).failed
    assert not pool.host(member.backup).failed


def test_backup_host_loss_triggers_repair_with_epoch_continuity(world):
    """Losing only the *backup* re-pairs the running primary in place:
    no failover, no restore — and epoch numbering continues, it does not
    restart from zero (a reset would let stale epoch-0 barriers alias)."""
    spec = FleetSpec(n_containers=1, n_hosts=3, slots_per_host=2)
    pool, controller, workload = build_fleet(world, spec, n_requests=20)
    member = controller.members["svc0"]

    at(world, ms(700),
       lambda: controller.inject_host_failstop(pool.host(member.backup)))
    world.run(until=ms(2500))
    controller.stop()

    assert member.failovers == 0
    assert member.reprotects == 1
    assert member.deployment.initial_epoch > 0
    assert_clean(controller, workload)


def test_migration_moves_primary_and_reprotects(world):
    spec = FleetSpec(n_containers=1, n_hosts=3, slots_per_host=2)
    pool, controller, workload = build_fleet(
        world, spec, n_requests=25, gap_us=ms(25),
    )
    member = controller.members["svc0"]
    source = member.primary
    outcome = {}

    def timeline():
        yield world.engine.timeout(ms(700))
        stats = yield from controller.migrate_container(
            "svc0", pool.host("node2")
        )
        outcome["stats"] = stats

    world.engine.process(timeline(), name="migrate")
    world.run(until=ms(3500))
    controller.stop()

    assert outcome["stats"] is not None
    assert outcome["stats"].downtime_us > 0
    assert member.migrations == 1
    assert member.migration_aborts == 0
    assert member.primary == "node2" != source
    assert pool.allocation("svc0", "primary") == "node2"
    assert pool.allocation("svc0", "primary-next") is None
    assert_clean(controller, workload)
    assert workload.stats["svc0"].completed == 25


def test_degraded_path_is_deterministic_across_seeds():
    """Spare-pool exhaustion -> degraded -> capacity returns -> re-protect
    must replay identically for every seed (states, counters, requests)."""
    from repro.fleet.scenarios import run_fleet_scenario

    for seed in (1, 2, 3):
        first = run_fleet_scenario("fleet.pool_exhausted_degraded", seed=seed)
        second = run_fleet_scenario("fleet.pool_exhausted_degraded", seed=seed)
        assert first.ok, (seed, first.violations)
        assert first.states == second.states
        assert first.completed == second.completed
        assert first.plan_log == second.plan_log
