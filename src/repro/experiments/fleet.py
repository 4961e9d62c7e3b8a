"""Fleet-scale experiments: the acceptance campaign and the scaling sweeps.

The campaign (:func:`run_fleet_campaign`, the paper gate's
``fleet_campaign`` artifact) is the fleet's end-to-end acceptance run: a
12-member fleet over a 6-host pool takes one *sequential* host fail-stop
and then two *concurrent* host fail-stops, while every member serves a
validating counter client.  Oracles: the shared fleet oracles
(:meth:`~repro.fleet.service.FleetCell.violations`: every member ends
re-protected, no acknowledged write is lost or replayed, no split brain),
every client completes, and a second run with the same seed produces a
byte-identical trace digest (:func:`replayed`: the whole recovery
pipeline is deterministic).  Its clauses add that recovery ran
concurrently and that every failover was re-protected.

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

Every cell is one :func:`~repro.fleet.service.open_fleet` world.  The
campaign and the sweeps are the ``fleet_campaign``, ``fleet_pair`` and
``fleet_pool`` artifacts of the paper gate (:mod:`repro.experiments.paper`),
which pins every cell exactly in ``BENCH_paper.json`` and states their
shape as clauses (``repro paper fleet_campaign`` prints the campaign).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.fuzz import trace_digest
from repro.fleet.controller import FleetController
from repro.fleet.metrics import FleetMetrics
from repro.fleet.placement import PlacementDecision
from repro.fleet.service import open_fleet
from repro.fleet.spec import FleetSpec
from repro.sim.units import ms, sec

__all__ = [
    "CAMPAIGN_FLEET",
    "CAMPAIGN_ROW",
    "PAIR_SIZES",
    "POOL_MEMBERS",
    "POOL_SIZES",
    "replayed",
    "run_fleet_campaign",
    "run_pair_cell",
    "run_pool_cell",
]

#: The campaign fleet: 12 replicated members over a 6-host pool.  Ten
#: slots per host so that after three host losses the surviving three
#: hosts still have headroom for all 24 role slots plus re-protection
#: churn (24 needed, 30 available).
CAMPAIGN_FLEET = FleetSpec(n_containers=12, n_hosts=6, slots_per_host=10)
#: The campaign's one row name: members x hosts.
CAMPAIGN_ROW = f"{CAMPAIGN_FLEET.n_containers}x{CAMPAIGN_FLEET.n_hosts}"
#: Requests per campaign client; every client must complete all of them.
CAMPAIGN_REQUESTS = 45


def replayed(run: Callable[[], dict[str, Any]], *keys: str) -> dict[str, Any]:
    """Run one seeded cell twice and return the first run's record with
    ``replay_digest`` added and, in its ``violations``, every one of
    *keys* (``digest`` always) that differs on replay and a replay that
    violated oracles the first run passed."""
    first, second = run(), run()
    violations = list(first["violations"])
    violations += [f"nondeterminism: same-seed {key} differs on replay "
                   f"({first[key]!r} != {second[key]!r})"
                   for key in ("digest", *keys) if first[key] != second[key]]
    if second["violations"] and not first["violations"]:
        violations.append("replay run violated oracles the first run passed")
    return {**first, "replay_digest": second["digest"], "violations": violations}


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


def _run_campaign_once(seed: int) -> dict[str, Any]:
    """One campaign run; returns its ``fleet_campaign`` row."""
    # The default 100k-event limit truncates a 12-member trace, and a
    # truncated tracer poisons the digest (a violation of the cell).
    cell = open_fleet(seed, CAMPAIGN_FLEET, decisions=_ring_decisions(CAMPAIGN_FLEET),
                      trace_limit=2_000_000, n_requests=CAMPAIGN_REQUESTS,
                      gap_us=ms(20))
    # Ring topology: node0 hosts 2 primaries + 2 backups.  The concurrent
    # pair fails in one engine instant: the controller must resolve both
    # failovers and both re-protections without double-booking spare slots.
    cell.fail_host_at(ms(600), "node0")
    cell.fail_host_at(ms(2000), lambda: _survivable_victims(cell.controller))
    cell.run(sec(5))

    violations = cell.violations()
    for name, stats in sorted(cell.workload.stats.items()):
        if stats.completed < CAMPAIGN_REQUESTS:
            violations.append(
                f"{name}: client completed {stats.completed}/"
                f"{CAMPAIGN_REQUESTS} requests (liveness)"
            )
    metrics = FleetMetrics.collect(cell.controller)
    return {
        "fleet": CAMPAIGN_ROW,
        "phases": "; ".join(f"{at // 1000} ms {'+'.join(hosts)}"
                            for at, hosts in cell.failstops),
        "completed_requests": cell.workload.total_completed(),
        "failovers": metrics.total_failovers,
        "reprotects": metrics.total_reprotects,
        "mean_reprotect_latency_us": round(metrics.mean_reprotect_latency_us(), 1),
        "protected_at_end": metrics.protected_members,
        "trace_events": len(cell.tracer.events),
        "digest": trace_digest(cell.tracer),
        "violations": violations,
    }


def run_fleet_campaign(seed: int = 1) -> dict[str, Any]:
    """The acceptance campaign's one row, run TWICE with the same seed.

    The second run exists purely to prove determinism: the entire fleet —
    12 epoch pipelines, failure detection, concurrent re-protection — must
    produce a byte-identical trace digest on replay.
    """
    return replayed(lambda: _run_campaign_once(seed))


# --------------------------------------------------------------------- #
# Scaling sweeps                                                         #
# --------------------------------------------------------------------- #
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
    cell = open_fleet(seed, fleet, decisions=decisions, n_requests=25,
                      gap_us=ms(15), touch_pages=1000)
    cell.run(run_until_us)
    fleet_metrics, workload = FleetMetrics.collect(cell.controller), cell.workload
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
        "violations": cell.violations(),
    }


def run_pool_cell(n_hosts: int, seed: int = 1) -> dict[str, Any]:
    """The :data:`POOL_MEMBERS`-member fleet over *n_hosts* hosts.  One
    host fail-stop probes how re-protect latency and blast radius (members
    disturbed per host loss) change with pool size."""
    fleet = FleetSpec(
        n_containers=POOL_MEMBERS, n_hosts=n_hosts, slots_per_host=10,
    )
    cell = open_fleet(seed, fleet, n_requests=25, gap_us=ms(15))
    cell.fail_host_at(ms(600), "node0")
    cell.run(sec(3))
    fleet_metrics = FleetMetrics.collect(cell.controller)
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
        "violations": cell.violations(),
    }
