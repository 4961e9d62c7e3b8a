"""Shared experiment machinery: stand up, run and measure one cell.

A cell is one workload under one replication mode, any name in the
:mod:`repro.replication.modes` registry:

* ``stock``   — unreplicated container (the baseline denominator),
* ``nilicon`` — the full NiLiCon deployment (or any config variant),
* ``hycor``   — HyCoR-style log-commit replication,
* ``mc``      — the Remus-on-KVM micro-checkpointing baseline,
* ``colo``    — COLO-style active replication (§VIII).

:func:`open_cell` is the one way to build a cell; :func:`run_overhead`
measures one the way its workload type is measured.  Server benchmarks
measure saturated throughput over a steady-state window (clients start
only after the initial full checkpoint has seeded the backup, so startup
cost doesn't pollute per-epoch statistics — matching the paper's
steady-state methodology).  Compute benchmarks measure completion time of
a fixed work quota.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.metrics.collector import RunMetrics
from repro.net.world import World, reset_id_counters
from repro.replication.config import NiliconConfig
from repro.replication.modes import get_mode
from repro.sim.units import ms, sec
from repro.workloads.base import ClientStats, ComputeWorkload, ServerWorkload, Workload
from repro.workloads.catalog import make_workload

__all__ = [
    "Cell",
    "RunResult",
    "build_deployment",
    "open_cell",
    "overhead",
    "run_compute_benchmark",
    "run_overhead",
    "run_server_benchmark",
]


@dataclass
class RunResult:
    """Everything one benchmark run produced."""

    workload: str
    mode: str
    #: Saturated throughput in operations/second (server benchmarks).
    throughput: float | None = None
    #: Completion time of the work quota (compute benchmarks), us.
    completion_us: int | None = None
    metrics: RunMetrics | None = None
    stats: ClientStats | None = None
    #: Fraction of the measurement window the container was stopped.
    stopped_fraction: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)


def overhead(stock: RunResult, repl: RunResult) -> float:
    """The paper's overhead of *repl* over *stock*: the relative increase in
    execution time for a compute cell, the relative reduction in maximum
    throughput otherwise."""
    if stock.completion_us is not None:
        return repl.completion_us / stock.completion_us - 1.0
    return 1.0 - repl.throughput / stock.throughput


def build_deployment(
    world: World,
    spec,
    mode: str,
    config: NiliconConfig | None = None,
    on_failover=None,
):
    """Deploy *spec* in *world* under the registered replication *mode*."""
    return get_mode(mode).deploy(world, spec, config, on_failover)


@dataclass
class Cell:
    """One workload deployed under one mode in its own world, warmed up
    and not yet started."""

    world: World
    workload: Workload
    deployment: Any
    stats: ClientStats = field(default_factory=ClientStats)

    def start(self) -> None:
        """Attach the service processes and start the deployment."""
        self.workload.attach(self.world, self.deployment.container)
        self.deployment.start()

    def clients_at(self, at_us: int, **client_kwargs) -> None:
        """Start the workload's clients (recording into :attr:`stats`) at
        simulated time *at_us*."""

        def launch():
            yield self.world.engine.timeout(at_us)
            self.workload.start_clients(self.world, self.stats, **client_kwargs)

        self.world.engine.process(launch())

    def fail_stop_at(self, at_us: int) -> None:
        """Fail-stop the primary host at simulated time *at_us*."""

        def inject():
            yield self.world.engine.timeout(at_us)
            self.deployment.inject_fail_stop()

        self.world.engine.process(inject())


def open_cell(
    workload_name: str,
    mode: str,
    seed: int = 1,
    *,
    config: NiliconConfig | None = None,
    workload_kwargs: dict | None = None,
    instrument: Callable[[World], None] | None = None,
) -> Cell:
    """Build one cell: rewound identity counters (so its pids, and with
    them its image bytes, do not depend on the cells run before it), a
    fresh world (handed to *instrument* before anything else touches it),
    the catalog workload, its deployment (which re-attaches the workload
    to the container a failover restores) and the warmed-up container
    state."""
    reset_id_counters()
    world = World(seed=seed)
    if instrument is not None:
        instrument(world)
    workload = make_workload(workload_name, **(workload_kwargs or {}))
    deployment = build_deployment(
        world,
        workload.spec(),
        mode,
        config=config,
        on_failover=lambda container: workload.attach(world, container),
    )
    workload.warmup(world, deployment.container)
    _absorb_warmup_faults(deployment)
    return Cell(world, workload, deployment)


def _wait_until_ready(world: World, deployment, floor_us: int):
    """Generator: wait until replication reached steady state.

    The initial *full* checkpoint blocks the container for as long as the
    configuration makes it (seconds for the unoptimized Table I levels);
    measurements must start after it, or startup cost pollutes steady-state
    numbers.  Waits at least *floor_us*, then until the primary has
    completed its first epoch (no-op for deployments without a pair
    protocol).
    """
    yield world.engine.timeout(floor_us)
    agent = getattr(deployment, "primary_agent", None)
    if agent is None:
        return
    while agent.epoch < 1 and not deployment.failed_over:
        yield world.engine.timeout(ms(10))


def _absorb_warmup_faults(deployment) -> None:
    """Warmup populates state before measurement begins; the dirty-tracking
    fault debt it accrues (massive under MC's write protection) belongs to
    startup, not to the first measured execution slice."""
    for process in deployment.container.processes:
        process.mm.drain_fault_time()


def run_overhead(
    workload_name: str, mode: str, duration_us: int, seed: int = 1
) -> RunResult:
    """One overhead cell, measured the way its workload type is: completion
    time of a compute quota, saturated throughput of a server over
    *duration_us*, or — for a workload that drives itself from an
    in-container loop (disk-rw) — operations completed over that window."""
    probe = make_workload(workload_name)
    if isinstance(probe, ComputeWorkload):
        return run_compute_benchmark(workload_name, mode, seed=seed)
    if isinstance(probe, ServerWorkload):
        return run_server_benchmark(
            workload_name, mode, duration_us=duration_us, seed=seed
        )
    cell = open_cell(workload_name, mode, seed)
    workload, deployment = cell.workload, cell.deployment
    cell.start()
    settle = ms(400)
    cell.world.run(until=settle)
    ops_at_settle = workload.operations
    cell.world.run(until=settle + duration_us)
    deployment.stop()
    if getattr(workload, "errors", None):
        raise RuntimeError(
            f"{workload_name}/{mode}: self-validation errors {workload.errors}"
        )
    ops = workload.operations - ops_at_settle
    return RunResult(
        workload=workload_name,
        mode=mode,
        throughput=ops * 1_000_000 / duration_us,
        metrics=deployment.metrics,
    )


def run_server_benchmark(
    workload_name: str,
    mode: str,
    duration_us: int = sec(3),
    settle_us: int = ms(400),
    seed: int = 1,
    config: NiliconConfig | None = None,
    workload_kwargs: dict | None = None,
    client_kwargs: dict | None = None,
) -> RunResult:
    """Measure saturated throughput of *workload_name* under *mode*."""
    cell = open_cell(
        workload_name, mode, seed, config=config, workload_kwargs=workload_kwargs
    )
    world, workload, deployment = cell.world, cell.workload, cell.deployment
    assert isinstance(workload, ServerWorkload), f"{workload_name} is not a server"
    cell.start()

    # Every mode that ships state or inputs to the backup host does so over
    # the world's pair link.
    link = world.pair_channel
    window: dict[str, int] = {}

    def launch_clients():
        yield from _wait_until_ready(world, deployment, settle_us)
        window["start"] = world.now
        window["end"] = world.now + duration_us
        window["cpu"] = deployment.container.cgroup.read_cpuacct()
        window["link_bytes"] = link.bytes_sent
        workload.start_clients(
            world, cell.stats, run_until_us=window["end"], **(client_kwargs or {})
        )

    world.engine.process(launch_clients())
    world.run(until=settle_us + duration_us)
    while "end" not in window or world.now < window["end"]:
        world.run(until=world.now + ms(50))
    deployment.stop()
    cpu_used = deployment.container.cgroup.read_cpuacct() - window["cpu"]
    link_bytes = link.bytes_sent - window["link_bytes"]

    if deployment.failed_over:
        raise RuntimeError(
            f"{workload_name}/{mode}: spurious failover during an overhead "
            "measurement (no fault was injected)"
        )
    metrics = deployment.metrics
    metrics.window_start_us = window["start"]
    metrics.window_end_us = window["end"]
    stopped = sum(e.stop_us for e in metrics.steady_epochs()) / max(1, duration_us)
    return RunResult(
        workload=workload_name,
        mode=mode,
        throughput=cell.stats.throughput(duration_us),
        metrics=metrics,
        stats=cell.stats,
        stopped_fraction=min(1.0, stopped),
        extra={
            "active_cores": cpu_used / duration_us,
            "link_mb_per_s": link_bytes / duration_us,
        },
    )


def run_compute_benchmark(
    workload_name: str,
    mode: str,
    seed: int = 1,
    config: NiliconConfig | None = None,
    workload_kwargs: dict | None = None,
    timeout_us: int = sec(120),
) -> RunResult:
    """Measure completion time of *workload_name* under *mode*."""
    cell = open_cell(
        workload_name, mode, seed, config=config, workload_kwargs=workload_kwargs
    )
    world, workload, deployment = cell.world, cell.workload, cell.deployment
    assert isinstance(workload, ComputeWorkload), f"{workload_name} is not compute"
    # The workload attaches at settle, not at start: replicated modes let
    # the initial full checkpoint finish before the work quota starts, so
    # completion time measures steady-state overhead.
    deployment.start()
    settle = ms(400) if mode != "stock" else 0
    completion: list[int] = []
    window: dict[str, int] = {}

    def launch_and_watch():
        if settle:
            yield from _wait_until_ready(world, deployment, settle)
        start = world.now
        window["start"] = start
        workload.attach(world, deployment.container)
        while not workload.is_complete(deployment.container):
            yield world.engine.timeout(ms(2))
        completion.append(world.now - start)

    watcher = world.engine.process(launch_and_watch())
    while not watcher.processed and world.now < timeout_us:
        world.run(until=min(timeout_us, world.now + ms(50)))
    deployment.stop()
    if not completion:
        raise RuntimeError(
            f"{workload_name}/{mode} did not finish within {timeout_us} us"
        )

    metrics = deployment.metrics
    metrics.window_start_us = window["start"]
    metrics.window_end_us = window["start"] + completion[0]
    stopped = sum(e.stop_us for e in metrics.steady_epochs()) / max(1, completion[0])
    return RunResult(
        workload=workload_name,
        mode=mode,
        completion_us=completion[0],
        metrics=metrics,
        stopped_fraction=min(1.0, stopped),
        extra={
            "active_cores": deployment.container.cgroup.read_cpuacct() / completion[0]
        },
    )
