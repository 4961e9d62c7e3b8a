"""Related-work comparison (paper §VIII): NiLiCon vs COLO-style replication.

The paper argues the warm-spare design point: active replication (COLO,
PLOVER) answers faster (matched outputs release immediately instead of
waiting out an epoch commit) but burns >100% resources on the backup,
while NiLiCon's backup merely buffers state (Table V: 0.07-0.40 cores).
This bench measures both sides of that trade-off on the same workload.
"""

from repro.experiments.common import build_deployment
from repro.net import World
from repro.sim import ms, sec
from repro.workloads.base import ClientStats
from repro.workloads.microbench import EchoServer


def _run_echo(system: str):
    world = World(seed=9)
    workload = EchoServer(name="echo", min_len=256, max_len=256, n_clients=4)
    deployment = build_deployment(
        world, workload.spec(), system,
        on_failover=lambda container: workload.attach(world, container),
    )
    workload.attach(world, deployment.container)
    deployment.start()
    stats = ClientStats()

    def launch():
        yield world.engine.timeout(ms(400))
        workload.start_clients(world, stats, run_until_us=sec(2), gap_us=ms(2))

    world.engine.process(launch())
    world.run(until=sec(2))
    deployment.stop()
    assert stats.ok and stats.completed > 50, (system, stats.completed, stats.errors)

    median_latency = sorted(stats.latencies_us)[len(stats.latencies_us) // 2]
    backup_cores = deployment.metrics.backup_core_utilization()
    primary_cores = deployment.container.cgroup.read_cpuacct() / max(
        1, deployment.metrics.elapsed_us
    )
    return {
        "system": system,
        "median_latency_ms": median_latency / 1000,
        "backup_cores": backup_cores,
        "primary_cores": primary_cores,
        "throughput": stats.throughput(sec(2) - ms(400)),
    }


def test_colo_vs_nilicon_tradeoff(benchmark):
    def run_both():
        return [_run_echo("nilicon"), _run_echo("colo")]

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print("\nSSVIII — warm spare (NiLiCon) vs active replication (COLO-style):")
    for row in rows:
        print(f"  {row['system']:<8} median latency {row['median_latency_ms']:6.1f} ms   "
              f"backup {row['backup_cores']:.3f} cores   "
              f"primary {row['primary_cores']:.3f} cores")
    by = {row["system"]: row for row in rows}

    # COLO answers much faster: no epoch-commit buffering of outputs.
    assert by["colo"]["median_latency_ms"] * 3 < by["nilicon"]["median_latency_ms"]
    # ...but its backup burns a workload's worth of CPU, while NiLiCon's
    # backup is a small fraction of the primary's.
    assert by["colo"]["backup_cores"] > 5 * by["nilicon"]["backup_cores"]
    assert by["colo"]["backup_cores"] > 0.5 * by["colo"]["primary_cores"]
    # NiLiCon's backup does near-zero absolute work for this light service
    # (it only reads and buffers the state stream).
    assert by["nilicon"]["backup_cores"] < 0.05
