"""FleetMetrics rollup: per-member summaries, aggregates, report table."""

import json

from repro.fleet import FleetMetrics, FleetSpec
from repro.sim.units import ms, sec

from .conftest import at, build_fleet


def run_small_fleet(world, with_failover=False):
    pool, controller, workload = build_fleet(
        world, FleetSpec(n_containers=2, n_hosts=3, slots_per_host=2),
        n_requests=10,
    )
    if with_failover:
        member = controller.members["svc0"]
        at(world, ms(600),
           lambda: controller.inject_host_failstop(pool.host(member.primary)))
    world.run(until=sec(2))
    controller.stop()
    return controller


def test_collect_rolls_up_every_member(world):
    metrics = FleetMetrics.collect(run_small_fleet(world))
    assert [m.name for m in metrics.members] == ["svc0", "svc1"]
    for member in metrics.members:
        assert member.state == "protected"
        assert member.generations == 1
        assert member.epochs > 0
        assert member.avg_stop_us > 0
    assert metrics.total_failovers == 0
    assert metrics.protected_members == 2
    assert metrics.hosts_failed == 0
    assert metrics.mean_stop_us() > 0
    assert metrics.mean_reprotect_latency_us() == 0.0


def test_collect_after_failover_counts_recovery(world):
    metrics = FleetMetrics.collect(run_small_fleet(world, with_failover=True))
    assert metrics.total_failovers == 1
    assert metrics.total_reprotects >= 1
    assert metrics.hosts_failed == 1
    assert metrics.mean_reprotect_latency_us() > 0
    svc0 = next(m for m in metrics.members if m.name == "svc0")
    assert svc0.generations == 2
    assert svc0.reprotect_latencies_us


def test_to_dict_is_json_serializable(world):
    metrics = FleetMetrics.collect(run_small_fleet(world))
    payload = json.loads(json.dumps(metrics.to_dict()))
    assert payload["protected_members"] == 2
    assert len(payload["members"]) == 2
    assert payload["members"][0]["name"] == "svc0"
