"""Fleet-scale experiments: the seeded failure campaign and scaling sweeps.

The campaign is the fleet's end-to-end acceptance run: a 12-member fleet
over a 6-host pool takes one *sequential* host fail-stop and then two
*concurrent* host fail-stops, while every member serves a validating
counter client.  Oracles: every member ends re-protected, no acknowledged
write is lost or replayed, no split brain, and two runs with the same seed
produce byte-identical trace digests (the whole recovery pipeline is
deterministic).

The sweeps cover the two cluster-shape dimensions the pool model makes
interesting:

* **containers per pair** (:func:`run_pair_cell`) — many members
  replicating over one shared 10 GbE pair link contend for bandwidth: the
  per-epoch stop time stays flat, but request latency grows with fleet
  density on the pair;
* **pool size** (:func:`run_pool_cell`) — the same 12 members over more
  hosts spread the failure blast radius (fewer members per host).
  Re-protect latency is detection/controller-bound, ~170–240 ms, not
  capacity-bound.

``python -m repro fleet campaign`` runs the campaign (``make fleet``);
``--smoke`` runs the reduced variant, which a tier-1 test pins.  The sweeps are the ``fleet_pair`` and
``fleet_pool`` artifacts of the paper gate (:mod:`repro.experiments.paper`),
which pins every cell exactly in ``BENCH_paper.json`` and states their
shape as clauses.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.analysis.fuzz import trace_digest
from repro.fleet.controller import FleetController
from repro.fleet.metrics import FleetMetrics
from repro.fleet.placement import PlacementDecision
from repro.fleet.pool import HostPool
from repro.fleet.service import FleetWorkload
from repro.fleet.spec import FleetSpec
from repro.net.world import World, reset_id_counters
from repro.replication.config import NiliconConfig
from repro.sim.trace import install_tracer
from repro.sim.units import ms, sec

__all__ = [
    "PAIR_SIZES",
    "POOL_MEMBERS",
    "POOL_SIZES",
    "format_campaign",
    "run_fleet_campaign",
    "run_pair_cell",
    "run_pool_cell",
]

#: The campaign fleet: 12 replicated members over a 6-host pool.  Ten
#: slots per host so that after three host losses the surviving three
#: hosts still have headroom for all 24 role slots plus re-protection
#: churn (24 needed, 30 available).
CAMPAIGN_FLEET = FleetSpec(n_containers=12, n_hosts=6, slots_per_host=10)


def _ring_decisions(fleet: FleetSpec) -> list[PlacementDecision]:
    """Pin the campaign pair topology to a ring: member *i* replicates
    node(i%h) -> node((i+1)%h).  A ring uses only adjacent host pairs, so
    after any single host loss the non-adjacent pairs are provably free of
    members — the concurrent double fail-stop can always pick two hosts
    that no member spans, keeping the campaign 100% survivable by
    construction (the placement *policy* itself is exercised by the unit
    tests and the pool-size sweep, which use it unpinned)."""
    h = fleet.n_hosts
    return [
        PlacementDecision(name, f"node{i % h}", f"node{(i + 1) % h}")
        for i, name in enumerate(fleet.member_names())
    ]


def _survivable_victims(controller: FleetController) -> tuple[str, str]:
    """Two alive hosts, both carrying primaries, such that no live member
    has its whole replica pair on exactly those two hosts — fail-stopping
    both at the same instant is survivable for the entire fleet."""
    members = [m for m in controller.members.values() if m.state != "dead"]
    spanned = {frozenset((m.primary, m.backup)) for m in members}
    primaried = {m.primary for m in members}
    alive = sorted(h.name for h in controller.pool.alive_hosts())
    for i, a in enumerate(alive):
        for b in alive[i + 1:]:
            if frozenset((a, b)) in spanned:
                continue
            if a in primaried and b in primaried:
                return a, b
    raise RuntimeError(
        "no survivable concurrent-failure host pair exists "
        "(every alive host pair carries a whole member)"
    )


def _run_campaign_once(
    seed: int,
    fleet: FleetSpec,
    *,
    n_requests: int,
    gap_us: int,
    sequential_at_us: int,
    concurrent_at_us: int,
    run_until_us: int,
    trace_limit: int,
) -> dict[str, Any]:
    """One full campaign run; returns the flat result record."""
    # Serialized checkpoint images embed process-global ids (pids, inode
    # numbers); rewind those counters so a same-seed replay in the same
    # process is byte-identical, not just behaviorally identical.
    reset_id_counters()
    world = World(seed=seed)
    # The default 100k-event limit truncates a 12-member trace and a
    # truncated tracer poisons the digest, so raise it and assert below.
    tracer = install_tracer(world.engine, limit=trace_limit)
    pool = HostPool(world, fleet.n_hosts, slots_per_host=fleet.slots_per_host)
    controller = FleetController(
        world, pool, fleet_spec=fleet, config=NiliconConfig.nilicon(),
        seed=seed,
    )
    controller.deploy(decisions=_ring_decisions(fleet))
    workload = FleetWorkload(world, controller, gap_us=gap_us)
    workload.attach_services()
    workload.start_clients(n_requests=n_requests)
    controller.start()

    phases: list[dict[str, Any]] = []

    def timeline() -> Generator[Any, Any, None]:
        yield world.engine.timeout(sequential_at_us)
        victim = "node0"  # ring topology: hosts 2 primaries + 2 backups
        phases.append({"phase": "sequential", "hosts": [victim],
                       "at_ms": sequential_at_us // 1000})
        controller.inject_host_failstop(pool.host(victim))
        yield world.engine.timeout(concurrent_at_us - sequential_at_us)
        a, b = _survivable_victims(controller)
        phases.append({"phase": "concurrent", "hosts": [a, b],
                       "at_ms": concurrent_at_us // 1000})
        # Same engine instant: the controller must resolve both failovers
        # and both re-protections without double-booking spare slots.
        controller.inject_host_failstop(pool.host(a))
        controller.inject_host_failstop(pool.host(b))

    world.engine.process(timeline(), name="campaign-timeline")
    world.run(until=run_until_us)
    controller.stop()

    metrics = FleetMetrics.collect(controller)
    violations: list[str] = []
    violations += workload.violations()
    violations += controller.audit()
    for name in sorted(controller.members):
        member = controller.members[name]
        if member.state != "protected":
            violations.append(
                f"{name}: ended {member.state}, expected protected"
            )
    for name, stats in sorted(workload.stats.items()):
        if stats.completed < n_requests:
            violations.append(
                f"{name}: client completed {stats.completed}/{n_requests} "
                f"requests (liveness)"
            )
    if metrics.total_failovers < 2:
        violations.append(
            f"only {metrics.total_failovers} failover(s) happened — the "
            f"campaign did not exercise concurrent recovery"
        )
    if metrics.total_reprotects < metrics.total_failovers:
        violations.append(
            f"{metrics.total_failovers} failovers but only "
            f"{metrics.total_reprotects} re-protections"
        )
    if tracer.dropped:
        violations.append(
            f"tracer dropped {tracer.dropped} event(s): digest is poisoned, "
            f"raise trace_limit"
        )

    return {
        "seed": seed,
        "phases": phases,
        "digest": trace_digest(tracer),
        "trace_events": len(tracer.events),
        "completed_requests": workload.total_completed(),
        "violations": violations,
        "metrics": metrics.to_dict(),
        "table": metrics.table(),
    }


def run_fleet_campaign(
    seed: int = 1,
    fleet: FleetSpec | None = None,
    smoke: bool = False,
) -> dict[str, Any]:
    """The acceptance campaign, run TWICE with the same seed.

    The second run exists purely to prove determinism: the entire fleet —
    12 epoch pipelines, failure detection, concurrent re-protection — must
    produce a byte-identical trace digest on replay.
    """
    fleet = fleet if fleet is not None else CAMPAIGN_FLEET
    knobs: dict[str, Any] = dict(
        n_requests=12 if smoke else 45,
        gap_us=ms(25) if smoke else ms(20),
        sequential_at_us=ms(600),
        concurrent_at_us=ms(1400) if smoke else ms(2000),
        run_until_us=sec(3) if smoke else sec(5),
        trace_limit=2_000_000,
    )
    first = _run_campaign_once(seed, fleet, **knobs)
    second = _run_campaign_once(seed, fleet, **knobs)

    violations = list(first["violations"])
    if first["digest"] != second["digest"]:
        violations.append(
            f"nondeterminism: same-seed digests differ "
            f"({first['digest']} != {second['digest']})"
        )
    if second["violations"] and not first["violations"]:
        violations.append("replay run violated oracles the first run passed")
    return {
        "ok": not violations,
        "smoke": smoke,
        "seed": seed,
        "fleet": {
            "containers": fleet.n_containers,
            "hosts": fleet.n_hosts,
            "slots_per_host": fleet.slots_per_host,
        },
        "phases": first["phases"],
        "digest": first["digest"],
        "replay_digest": second["digest"],
        "deterministic": first["digest"] == second["digest"],
        "trace_events": first["trace_events"],
        "completed_requests": first["completed_requests"],
        "violations": violations,
        "metrics": first["metrics"],
        "table": first["table"],
    }


def format_campaign(report: dict[str, Any]) -> str:
    lines = [
        f"fleet campaign — {report['fleet']['containers']} members over "
        f"{report['fleet']['hosts']} hosts (seed {report['seed']}"
        f"{', smoke' if report['smoke'] else ''})",
    ]
    for phase in report["phases"]:
        lines.append(
            f"  t={phase['at_ms']}ms {phase['phase']} fail-stop: "
            f"{', '.join(phase['hosts'])}"
        )
    metrics = report["metrics"]
    lines.append(
        f"  {metrics['total_failovers']} failovers, "
        f"{metrics['total_reprotects']} re-protections, "
        f"{metrics['protected_members']}/{len(metrics['members'])} members "
        f"protected at end"
    )
    lines.append(
        f"  {report['completed_requests']} acknowledged requests validated, "
        f"mean re-protect latency "
        f"{metrics['mean_reprotect_latency_us'] / 1000:.1f} ms"
    )
    lines.append(
        f"  digest {report['digest']} over {report['trace_events']} events "
        f"— replay {'IDENTICAL' if report['deterministic'] else 'DIVERGED'} "
        f"({report['replay_digest']})"
    )
    if report["violations"]:
        lines.append(f"  {len(report['violations'])} violation(s):")
        lines += [f"    - {v}" for v in report["violations"]]
    else:
        lines.append("  all oracles held: recovery 100%, zero acknowledged "
                     "writes lost, no split brain")
    lines.append("")
    lines.append(report["table"])
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Scaling sweeps                                                         #
# --------------------------------------------------------------------- #
def _run_steady(
    seed: int,
    fleet: FleetSpec,
    decisions: list[PlacementDecision] | None,
    *,
    n_requests: int,
    run_until_us: int,
    fail_host: str | None = None,
    fail_at_us: int = ms(600),
    touch_pages: int = 1,
) -> tuple[FleetMetrics, FleetWorkload, list[str]]:
    """One sweep cell: a fleet run, optionally with one host fail-stop."""
    reset_id_counters()
    world = World(seed=seed)
    pool = HostPool(world, fleet.n_hosts, slots_per_host=fleet.slots_per_host)
    controller = FleetController(
        world, pool, fleet_spec=fleet, config=NiliconConfig.nilicon(),
        seed=seed,
    )
    controller.deploy(decisions=decisions)
    workload = FleetWorkload(world, controller, gap_us=ms(15),
                             touch_pages=touch_pages)
    workload.attach_services()
    workload.start_clients(n_requests=n_requests)
    controller.start()
    if fail_host is not None:
        def timeline() -> Generator[Any, Any, None]:
            yield world.engine.timeout(fail_at_us)
            controller.inject_host_failstop(pool.host(fail_host))

        world.engine.process(timeline(), name="bench-failstop")
    world.run(until=run_until_us)
    controller.stop()
    violations = workload.violations() + controller.audit()
    return FleetMetrics.collect(controller), workload, violations


#: Sweep sizes: the paper gate's ``fleet_pair`` and ``fleet_pool`` rows.
#: Its smoke run takes the first two of each at full-run parameters, so
#: its cells equal the same cells of a full run.
PAIR_SIZES = (1, 2, 4, 8)
POOL_SIZES = (4, 6, 8, 12)
POOL_MEMBERS = 12


def run_pair_cell(count: int, seed: int = 1) -> dict[str, Any]:
    """*count* members stacked on ONE host pair.

    Every member replicates node0 -> node1 over the same pooled 10 GbE
    link, and every request dirties ~1000 heap pages (~4 MB of state per
    epoch, ~3 ms of wire time), so transfers queue behind each other on
    the shared link.  Stop time stays flat — the transfer is off the stop
    path — but the backup's ack arrives later, so output commit and
    client-observed request latency climb with fleet density on the pair.
    """
    run_until_us = sec(2)
    fleet = FleetSpec(n_containers=count, n_hosts=2, slots_per_host=8,
                      heap_pages=1024)
    decisions = [
        PlacementDecision(name, "node0", "node1")
        for name in fleet.member_names()
    ]
    fleet_metrics, workload, violations = _run_steady(
        seed, fleet, decisions,
        n_requests=25, run_until_us=run_until_us,
        touch_pages=1000,
    )
    latencies = [s.mean_latency_us() for s in workload.stats.values()
                 if s.completed]
    return {
        "containers": count,
        "mean_stop_us": round(fleet_metrics.mean_stop_us(), 1),
        "mean_request_latency_us": round(
            sum(latencies) / len(latencies), 1
        ) if latencies else 0.0,
        "completed_requests": workload.total_completed(),
        "throughput_rps": round(
            workload.total_completed() / (run_until_us / 1e6), 1
        ),
        "violations": violations,
    }


def run_pool_cell(n_hosts: int, seed: int = 1) -> dict[str, Any]:
    """The :data:`POOL_MEMBERS`-member fleet over *n_hosts* hosts.  One
    host fail-stop probes how re-protect latency and blast radius (members
    disturbed per host loss) change with pool size."""
    fleet = FleetSpec(
        n_containers=POOL_MEMBERS, n_hosts=n_hosts, slots_per_host=10,
    )
    fleet_metrics, workload, violations = _run_steady(
        seed, fleet, None,
        n_requests=25, run_until_us=sec(3),
        fail_host="node0",
    )
    return {
        "hosts": n_hosts,
        "members_disturbed": sum(
            1 for m in fleet_metrics.members if m.failovers or m.reprotects
        ),
        "failovers": fleet_metrics.total_failovers,
        "reprotects": fleet_metrics.total_reprotects,
        "mean_reprotect_latency_us": round(
            fleet_metrics.mean_reprotect_latency_us(), 1
        ),
        "protected_at_end": fleet_metrics.protected_members,
        "violations": violations,
    }
