"""The four simulated inputs the benchmark runs.

Host-side every workload is a batch job: the simulator runs a fixed
simulated input as fast as it can, in one single-threaded process.  The
simulated clients, sessions and connections are objects in that process.

Each workload builds itself (the set-up the bench times as ``setup_s``),
then :meth:`execute` runs the simulated window (``wall_s``), and
:meth:`outcome` checks the oracles and collects the simulated outputs.
Sizes are fixed here; tests pass a tiny size, the bench never does.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Iterable

from repro.experiments.common import build_deployment
from repro.fleet import FleetController, FleetMetrics, FleetSpec, FleetWorkload, HostPool
from repro.metrics.stats import percentile
from repro.net import World
from repro.net.world import reset_id_counters
from repro.replication.config import NiliconConfig
from repro.sim.units import ms, sec
from repro.traffic import OpenLoopTraffic, TrafficProfile, TrafficProxy
from repro.workloads.base import ClientStats
from repro.workloads.catalog import make_workload

__all__ = ["WORKLOADS", "Outcome", "sim_digest", "tail_percentile"]


@dataclass
class Outcome:
    """What one simulated window produced."""

    attempted: int
    failed: int
    violations: list[str]
    #: ``sim_*`` values: model outputs that repeat exactly for a seed.
    outputs: dict[str, float]
    #: Canonical simulated outputs; :func:`sim_digest` hashes them.
    payload: dict[str, Any] = field(repr=False)


def sim_digest(payload: dict[str, Any]) -> str:
    """CRC32 over the canonical JSON of the simulated outputs."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return f"{zlib.crc32(blob) & 0xFFFFFFFF:08x}"


def tail_percentile(n: int) -> float:
    """The highest of p50/p90/p99/p99.9 that leaves >= 10 samples beyond it."""
    chosen = 50.0
    for p in (90.0, 99.0, 99.9):
        if n * (100.0 - p) / 100.0 >= 10:
            chosen = p
    return chosen


def _latency_outputs(n: int, pct) -> dict[str, float]:
    """p50 and tail from a percentile function over *n* samples (us)."""
    tail = tail_percentile(n)
    return {
        "sim_lat_p50_ms": pct(50) / 1000,
        "sim_lat_tail_ms": pct(tail) / 1000,
        "sim_lat_tail_pct": tail,
        "sim_lat_n": n,
    }


def _stop_p50_ms(deployments: Iterable[Any]) -> float:
    """Median steady-state stop time: every epoch after each pair's initial
    full checkpoint."""
    stops = [e.stop_us for d in deployments for e in d.metrics.epochs[1:]]
    return percentile(stops, 50) / 1000 if stops else 0.0


def _object_counters(deployments: list[Any], slot_ops: int = 0) -> dict[str, int]:
    """The always-on work counters, summed over every pair and container."""
    containers = {}
    for deployment in deployments:
        for container in (deployment.container, deployment.restored_container):
            if container is not None:
                containers[id(container)] = container
    written = faults = 0
    for container in containers.values():
        for process in container.processes:
            written += process.mm.pages_written
            faults += process.mm.total_faults
    caches = [d.primary_agent.digest_cache for d in deployments]
    return {
        "kernel.pages_written": written,
        "kernel.faults": faults,
        "replication.pages_digested": sum(c.pages_digested for c in caches),
        "replication.digest_cache_hits": sum(c.cache_hits for c in caches),
        "criu.pages_stored": sum(d.backup_agent.page_store.pages_stored for d in deployments),
        "fleet.slot_ops": slot_ops,
    }


def _failed_ops(attempted: int, failed: int, violations: list[str]) -> int:
    """A broken oracle fails every op of the run."""
    return attempted if violations else failed


class Kv:
    """Catalog redis under nilicon, driven by one pipelined client."""

    name = "kv"
    size = (
        "catalog `redis` (8k keys, one 4 KiB page per key) under nilicon; "
        "the client sends from 300 ms to 700 ms simulated, then drains"
    )
    loop = "closed loop: one pipelined client, window 64, 1000-op batches, 50% set / 50% get"
    why = (
        "write-heavy page path plus the protocol decoder: exercises find_vma, "
        "heap_vma and decode_body, barely touches the event engine"
    )

    @dataclass(frozen=True)
    class Params:
        start_us: int = ms(300)
        send_until_us: int = ms(700)
        drain_cap_us: int = sec(5)

    DEFAULT = Params()
    TINY = Params(send_until_us=ms(330))
    BATCH_OPS = 1000

    def __init__(self, seed: int, params: Params | None = None) -> None:
        self.params = params or self.DEFAULT
        reset_id_counters()
        self.world = world = World(seed=seed)
        self.workload = make_workload("redis")
        self.deployment = build_deployment(world, self.workload.spec(), "nilicon")
        self.workload.warmup(world, self.deployment.container)
        self.workload.attach(world, self.deployment.container)
        self.deployment.start()
        self.stats = ClientStats()
        self.clients: list[Any] = []
        self.end_us = 0
        world.engine.process(self._launch(), name="bench-kv-launch")

    def _launch(self):
        yield self.world.engine.timeout(self.params.start_us)
        self.clients.append(
            self.workload.start_clients(
                self.world,
                self.stats,
                batch_size=self.BATCH_OPS,
                run_until_us=self.params.send_until_us,
            )
        )

    def _drained(self) -> bool:
        return bool(self.clients) and self.clients[0].done

    def execute(self) -> None:
        world = self.world
        world.run(until=self.params.send_until_us)
        cap = self.params.send_until_us + self.params.drain_cap_us
        while not self._drained() and world.now < cap:
            world.run(until=world.now + ms(10))
        self.end_us = world.now
        self.deployment.stop()

    def counters(self) -> dict[str, int]:
        return _object_counters([self.deployment])

    def outcome(self) -> Outcome:
        stats = self.stats
        violations = []
        if not self._drained():
            violations.append("kv: client still had batches in flight at the drain cap")
        if self.deployment.failed_over:
            violations.append("kv: spurious failover (no fault was injected)")
        attempted = (stats.completed + stats.errors) * self.BATCH_OPS
        failed = (len(stats.validation_failures) + stats.errors) * self.BATCH_OPS
        latencies = stats.latencies_us
        window_s = (self.end_us - self.params.start_us) / 1e6
        outputs = {"sim_tput": stats.operations / window_s}
        if latencies:
            outputs.update(
                _latency_outputs(len(latencies), lambda p: percentile(latencies, p))
            )
        outputs["sim_stop_ms_p50"] = _stop_p50_ms([self.deployment])
        payload = {
            "latencies_us": latencies,
            "ops": stats.operations,
            "batches": stats.completed,
            "stops": {self.workload.name: [e.stop_us for e in self.deployment.metrics.epochs]},
            "recovery": {},
        }
        return Outcome(
            attempted, _failed_ops(attempted, failed, violations), violations, outputs, payload
        )


class Traffic:
    """A 12-member fleet behind the L7 proxy under open-loop sessions."""

    name = "traffic"
    size = (
        "12 members on 6 hosts behind the L7 proxy; 4 s of Poisson session "
        "arrivals at 1100/s (3 requests each, 500 ms think time), then a 3 s tail"
    )
    loop = "open loop in simulated time: Poisson session arrivals"
    why = (
        "bound by event handling: engine, TCP and bridge work dominate while "
        "the page and protocol paths are bypassed"
    )

    @dataclass(frozen=True)
    class Params:
        fleet: FleetSpec = FleetSpec(n_containers=12, n_hosts=6, slots_per_host=10)
        #: One profile name for traffic and failover: the ``traffic.<name>``
        #: RNG stream then draws the same arrivals for both.
        profile: TrafficProfile = TrafficProfile(
            "bench", rate_rps=1100.0, requests_per_session=3,
            think_us=ms(500), duration_us=sec(4),
        )
        warmup_us: int = ms(300)
        tail_us: int = sec(3)
        #: Host ``node0`` fail-stops this long after traffic starts.
        failstop_after_us: int | None = None

    DEFAULT = Params()
    TINY = Params(
        fleet=FleetSpec(n_containers=6, n_hosts=6, slots_per_host=8),
        profile=TrafficProfile(
            "bench", rate_rps=80.0, requests_per_session=2,
            think_us=ms(300), duration_us=ms(600),
        ),
        tail_us=sec(2),
    )

    def __init__(self, seed: int, params: Params | None = None) -> None:
        self.params = params = params or self.DEFAULT
        reset_id_counters()
        self.world = world = World(seed=seed)
        self.pool = HostPool(world, params.fleet.n_hosts,
                             slots_per_host=params.fleet.slots_per_host)
        self.controller = FleetController(
            world, self.pool, fleet_spec=params.fleet,
            config=NiliconConfig.nilicon(), seed=seed,
        )
        self.controller.deploy()
        # Services only: the proxy's open-loop sessions are the clients.
        self.services = FleetWorkload(world, self.controller)
        self.services.attach_services()
        self.controller.start()
        self.proxy = TrafficProxy(world, self.controller)
        self.proxy.start()
        self.traffic = OpenLoopTraffic(world, self.proxy.ip, self.proxy.port, params.profile)
        world.engine.process(self._timeline(), name="bench-traffic-timeline")

    def _timeline(self):
        engine = self.world.engine
        yield engine.timeout(self.params.warmup_us)
        self.traffic.start()
        if self.params.failstop_after_us is not None:
            yield engine.timeout(self.params.failstop_after_us)
            self.controller.inject_host_failstop(self.pool.host("node0"))

    def execute(self) -> None:
        params = self.params
        self.world.run(until=params.warmup_us + params.profile.duration_us + params.tail_us)
        self.proxy.stop()
        self.controller.stop()

    def _deployments(self) -> list[Any]:
        return [
            d
            for name in sorted(self.controller.members)
            for d in self.controller.members[name].deployments
        ]

    def counters(self) -> dict[str, int]:
        return _object_counters(self._deployments(), self.pool.slot_ops)

    def outcome(self) -> Outcome:
        stats = self.traffic.stats
        proxy = self.proxy
        violations = self.services.violations() + self.controller.audit()
        if stats.in_flight():
            violations.append(f"{stats.in_flight()} request(s) never resolved")
        if stats.sessions_finished != stats.sessions_started:
            violations.append(
                f"{stats.sessions_started - stats.sessions_finished} session(s) still open"
            )
        if proxy.counters.routed != proxy.counters.relayed + proxy.inflight():
            violations.append("proxy routed requests it never relayed")
        failovers = FleetMetrics.collect(self.controller).total_failovers
        if self.params.failstop_after_us is not None and failovers < 1:
            violations.append("host fail-stop injected but no failover ran")
        attempted = stats.sent
        failed = (
            stats.errors + stats.timeouts + stats.validation_failures
            + proxy.counters.dropped
        )
        outputs = {"sim_tput": stats.completed / (self.params.profile.duration_us / 1e6)}
        if stats.latency.n:
            outputs.update(_latency_outputs(stats.latency.n, stats.latency.percentile))
        outputs["sim_stop_ms_p50"] = _stop_p50_ms(self._deployments())
        members = self.controller.members
        recovery = {
            name: [
                asdict(d.metrics.recovery)
                for d in members[name].deployments
                if d.metrics.recovery is not None
            ]
            for name in sorted(members)
        }
        totals = [r["total_recovery_us"] for rs in recovery.values() for r in rs]
        if self.params.failstop_after_us is not None and totals:
            outputs["sim_recovery_ms"] = max(totals) / 1000
        payload = {
            "latency": stats.latency.to_dict(),
            "requests": stats.completed,
            "sent": stats.sent,
            "sessions": stats.sessions_started,
            "stops": {
                name: [e.stop_us for d in members[name].deployments for e in d.metrics.epochs]
                for name in sorted(members)
            },
            "recovery": recovery,
        }
        return Outcome(
            attempted, _failed_ops(attempted, failed, violations), violations, outputs, payload
        )


class Failover(Traffic):
    """``traffic`` plus one host fail-stop 900 ms after traffic starts."""

    name = "failover"
    size = "exactly `traffic`, plus `inject_host_failstop(node0)` 900 ms after traffic starts"
    why = (
        "same load as traffic, so the difference isolates detection, CRIU "
        "restore, TCP repair, re-protection and proxy retry"
    )

    DEFAULT = Traffic.Params(failstop_after_us=ms(900))
    TINY = replace(Traffic.TINY, failstop_after_us=ms(200))


class Compute:
    """Catalog streamcluster under nilicon, run to a fixed work quota."""

    name = "compute"
    size = (
        "catalog `streamcluster` (4 threads, 49k resident pages, 303 dirty "
        "pages/epoch) under nilicon, a 100k-unit quota run to completion"
    )
    loop = "batch: fixed work quota, no network"
    why = (
        "large resident set, small dirty set: the page-digest cache hit ratio "
        "is high and the 49k-page warm-up makes set-up a real share"
    )

    @dataclass(frozen=True)
    class Params:
        total_units: int = 100_000
        settle_us: int = ms(400)
        timeout_us: int = sec(60)

    DEFAULT = Params()
    TINY = Params(total_units=2_000)

    def __init__(self, seed: int, params: Params | None = None) -> None:
        self.params = params = params or self.DEFAULT
        reset_id_counters()
        self.world = world = World(seed=seed)
        self.workload = make_workload("streamcluster", total_units=params.total_units)
        self.deployment = build_deployment(world, self.workload.spec(), "nilicon")
        self.workload.warmup(world, self.deployment.container)
        self.deployment.start()
        self.completion_us: int | None = None
        self.watcher = world.engine.process(self._watch(), name="bench-compute-watch")

    def _watch(self):
        engine = self.world.engine
        container = self.deployment.container
        # Let the initial full checkpoint settle before the quota starts.
        yield engine.timeout(self.params.settle_us)
        start = engine.now
        self.workload.attach(self.world, container)
        while not self.workload.is_complete(container):
            yield engine.timeout(ms(2))
        self.completion_us = engine.now - start

    def execute(self) -> None:
        world = self.world
        while not self.watcher.processed and world.now < self.params.timeout_us:
            world.run(until=min(self.params.timeout_us, world.now + ms(50)))
        self.deployment.stop()

    def counters(self) -> dict[str, int]:
        return _object_counters([self.deployment])

    def outcome(self) -> Outcome:
        container = self.deployment.container
        progress = self.workload.total_progress(container)
        violations = []
        if self.completion_us is None:
            violations.append(f"compute: quota not met ({progress} units done)")
        if self.deployment.failed_over:
            violations.append("compute: spurious failover (no fault was injected)")
        attempted = self.params.total_units
        failed = max(0, attempted - progress)
        outputs = {}
        if self.completion_us:
            outputs["sim_tput"] = attempted / (self.completion_us / 1e6)
        outputs["sim_stop_ms_p50"] = _stop_p50_ms([self.deployment])
        payload = {
            "completion_us": self.completion_us,
            "progress": progress,
            "stops": {self.workload.name: [e.stop_us for e in self.deployment.metrics.epochs]},
            "result": {
                str(page): content.hex()
                for page, content in sorted(self.workload.result_signature(container).items())
            },
            "recovery": {},
        }
        return Outcome(
            attempted, _failed_ops(attempted, failed, violations), violations, outputs, payload
        )


WORKLOADS = {cls.name: cls for cls in (Kv, Traffic, Failover, Compute)}
