"""Mode conformance: every registered pair-protocol strategy upholds the
same external contract.

The harness drives each mode through the full lifecycle — deploy, dirty
pages under client load, fail-stop, failover, oracle audit — on catalog
workloads, asserting the contract the strategies share: no acknowledged
write lost, no release before the mode's commit rule allows it, exactly
one recovery.  A second pass re-runs each cell and requires a bit-identical
trace digest: a strategy backend may not smuggle nondeterminism in.
"""

import pytest

from repro.analysis.fuzz import trace_digest
from repro.experiments.common import build_deployment
from repro.faultinject import evaluate_oracles
from repro.net import World
from repro.net.world import reset_id_counters
from repro.replication.modes import MODE_REGISTRY, get_mode, mode_names
from repro.sim import ms, sec
from repro.sim.trace import install_tracer
from repro.workloads.base import ClientStats
from repro.workloads.catalog import make_workload

PAIR_MODES = tuple(n for n, m in MODE_REGISTRY.items() if m.pair_protocol)
WORKLOADS = ("net-echo", "redis")
_CRASH_AT_US = ms(500)
_RUN_US = ms(1200)


def run_conformance_cell(mode: str, workload_name: str, seed: int = 31):
    """One lifecycle pass; returns (violations, stats, deployment, digest)."""
    reset_id_counters()
    world = World(seed=seed)
    tracer = install_tracer(world.engine, limit=500_000)
    workload = make_workload(workload_name)
    deployment = build_deployment(
        world,
        workload.spec(),
        mode,
        on_failover=lambda container: workload.attach(world, container),
    )
    workload.warmup(world, deployment.container)
    workload.attach(world, deployment.container)
    deployment.start()

    stats = ClientStats()

    def launch():
        yield world.engine.timeout(ms(120))
        workload.start_clients(world, stats, run_until_us=_RUN_US)

    def crash():
        yield world.engine.timeout(_CRASH_AT_US)
        deployment.inject_fail_stop()

    world.engine.process(launch())
    world.engine.process(crash())
    world.run(until=_RUN_US + sec(1))
    deployment.stop()

    violations = evaluate_oracles(deployment, stats, expect_failover=True)
    return violations, stats, deployment, trace_digest(tracer)


def test_registry_exposes_all_strategies():
    assert mode_names() == ["stock", "nilicon", "hycor", "mc", "colo"]
    assert set(PAIR_MODES) == {"nilicon", "hycor"}
    assert get_mode("nilicon").release_rule == "checkpoint-commit"
    assert get_mode("hycor").release_rule == "log-commit"
    assert get_mode("stock").release_rule == "immediate"
    assert get_mode("colo").release_rule == "output-match"
    for name in PAIR_MODES:
        mode = get_mode(name)
        assert mode.description
        assert mode.pair_protocol


@pytest.mark.parametrize("workload_name", WORKLOADS)
@pytest.mark.parametrize("mode", PAIR_MODES)
def test_mode_survives_failstop_with_no_acked_write_lost(mode, workload_name):
    violations, stats, deployment, _ = run_conformance_cell(mode, workload_name)
    assert violations == []
    assert deployment.failed_over
    assert stats.completed > 0
    # Zero acknowledged-write loss, stated directly (the oracles cover it
    # via validation_failures, but this is the conformance contract).
    assert stats.validation_failures == []
    assert deployment.backup_agent.recoveries_started == 1


@pytest.mark.parametrize("mode", PAIR_MODES)
def test_mode_cell_replays_bit_identically(mode):
    first = run_conformance_cell(mode, "net-echo")
    second = run_conformance_cell(mode, "net-echo")
    assert first[3] == second[3], f"{mode}: trace digests diverged"
    assert first[0] == second[0] == []


def test_modes_differ_in_release_cadence():
    """The strategy split is real: hycor fences output per flush window
    (~3ms), nilicon per checkpoint epoch (~30ms) — an order of magnitude
    more release barriers for the same run."""
    _, _, nilicon, _ = run_conformance_cell("nilicon", "net-echo")
    _, _, hycor, _ = run_conformance_cell("hycor", "net-echo")
    assert len(hycor.netbuffer.releases) > 2 * len(nilicon.netbuffer.releases)
