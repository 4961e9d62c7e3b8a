"""Traffic-tier experiments: open-loop SLO campaign and latency bench.

The campaign runs four workload profiles against a proxied fleet, each in
its own world, each TWICE with the same seed (PR 5's determinism
convention — the replay must reproduce both the trace digest *and* every
cell of the SLO table):

* **steady** — constant-rate Poisson arrivals at full scale: the
  baseline client-visible cost of output commit (latency quantized to
  epoch boundaries shows up as the p99/p999 plateau).
* **bursty** — on/off arrivals; bursts land inside single epochs, so the
  stall distribution widens while p50 barely moves.
* **failover** — steady arrivals across a host fail-stop: requests in
  flight ride TCP repair to the promoted backup, and the outage appears
  as the stall-max column, not as errors.
* **migration** — steady arrivals across a planned
  ``migrate_container``, wrapped in proxy drain/undrain so the cutover
  happens with zero requests in flight on the moving member.

Oracles per profile: zero client errors, zero request timeouts, zero
validation failures, zero proxy drops, every routed request relayed, and
(scenario profiles) the failover/migration actually happened.

Because the clock is simulated, the bench's latency percentiles are exact
and replayable — the ``BENCH_traffic.json`` gate (the one bench schema,
:mod:`repro.metrics.benchfile`) compares them cell for cell and fails CI
on a p99 regression beyond tolerance, with zero runner noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Generator

from repro.analysis.fuzz import trace_digest
from repro.fleet.controller import FleetController
from repro.fleet.metrics import FleetMetrics
from repro.fleet.pool import HostPool
from repro.fleet.service import FleetWorkload
from repro.fleet.spec import FleetSpec
from repro.metrics import benchfile
from repro.metrics.slo import SloRow, SloTable
from repro.net.world import World, reset_id_counters
from repro.replication.config import NiliconConfig
from repro.sim.trace import install_tracer
from repro.sim.units import ms, sec
from repro.traffic.openloop import OpenLoopTraffic, TrafficProfile
from repro.traffic.proxy import TrafficProxy

__all__ = [
    "format_traffic_campaign",
    "run_traffic_bench",
    "run_traffic_campaign",
    "traffic_profiles",
]

#: The campaign fleet: same shape as the fleet campaign's (12 members on
#: 6 hosts), so the SLO table describes the cluster the rest of the
#: evaluation uses.
TRAFFIC_FLEET = FleetSpec(n_containers=12, n_hosts=6, slots_per_host=10)
SMOKE_FLEET = FleetSpec(n_containers=6, n_hosts=6, slots_per_host=8)

#: Traffic starts after protection settles so the SLO table measures the
#: protected steady state, not deployment transients.
WARMUP_US = ms(300)


@dataclass(frozen=True)
class _Scenario:
    """A profile plus the fault/maintenance event injected under it."""

    profile: TrafficProfile
    #: None, "failover" (host fail-stop) or "migration" (drain + move).
    event: str | None = None
    event_at_us: int = ms(900)


def traffic_profiles(smoke: bool = False) -> list[_Scenario]:
    """The campaign's four workload scenarios.

    Full scale sustains >=1000 concurrent sessions on the steady profile:
    ~1100 sessions/s arriving for 2 s, each session alive ~1.5 s (three
    requests, 500 ms think time), so steady-state concurrency sits around
    arrival_rate x lifetime ~ 1600.
    """
    if smoke:
        return [
            _Scenario(TrafficProfile(
                "steady", rate_rps=120.0, requests_per_session=2,
                think_us=ms(300), duration_us=ms(800))),
            _Scenario(TrafficProfile(
                "bursty", arrival="onoff", rate_rps=220.0,
                on_us=ms(200), off_us=ms(200), requests_per_session=2,
                think_us=ms(200), duration_us=ms(800))),
            _Scenario(TrafficProfile(
                "failover", rate_rps=80.0, requests_per_session=2,
                think_us=ms(300), duration_us=ms(800)),
                event="failover", event_at_us=ms(600)),
            _Scenario(TrafficProfile(
                "migration", rate_rps=80.0, requests_per_session=2,
                think_us=ms(300), duration_us=ms(800)),
                event="migration", event_at_us=ms(600)),
        ]
    return [
        _Scenario(TrafficProfile(
            "steady", rate_rps=1100.0, requests_per_session=3,
            think_us=ms(500), duration_us=sec(2))),
        _Scenario(TrafficProfile(
            "bursty", arrival="onoff", rate_rps=1600.0,
            on_us=ms(300), off_us=ms(300), requests_per_session=2,
            think_us=ms(300), duration_us=sec(2))),
        _Scenario(TrafficProfile(
            "failover", rate_rps=350.0, requests_per_session=3,
            think_us=ms(400), duration_us=sec(2)),
            event="failover", event_at_us=ms(900)),
        _Scenario(TrafficProfile(
            "migration", rate_rps=350.0, requests_per_session=3,
            think_us=ms(400), duration_us=sec(2)),
            event="migration", event_at_us=ms(900)),
    ]


def _migration_dest(controller: FleetController, member_name: str) -> str:
    """The emptiest alive host not already carrying either of the
    member's replicas (deterministic: ties break on sorted name)."""
    member = controller.members[member_name]
    pool = controller.pool
    candidates = sorted(
        (h.name for h in pool.alive_hosts()
         if h.name not in (member.primary, member.backup)),
        key=lambda n: (-pool.free_slots(n), n),
    )
    if not candidates:
        raise RuntimeError("no migration destination host available")
    return candidates[0]


def _run_scenario_once(
    seed: int,
    fleet: FleetSpec,
    scenario: _Scenario,
    *,
    tail_us: int,
    trace_limit: int,
    instrument=None,
    config: NiliconConfig | None = None,
) -> dict[str, Any]:
    """One profile in a fresh world; returns the flat result record.

    The replication strategy comes from ``fleet.mode`` (the controller
    folds it into its config), so a HyCoR campaign passes a fleet spec
    with ``mode="hycor"`` rather than a different config object.
    """
    reset_id_counters()
    world = World(seed=seed)
    if instrument is not None:
        instrument(world)
    tracer = install_tracer(world.engine, limit=trace_limit)
    pool = HostPool(world, fleet.n_hosts, slots_per_host=fleet.slots_per_host)
    controller = FleetController(
        world, pool, fleet_spec=fleet,
        config=config if config is not None else NiliconConfig.nilicon(),
        seed=seed,
    )
    controller.deploy()
    # Services only: the proxy's open-loop sessions ARE the clients.
    workload = FleetWorkload(world, controller)
    workload.attach_services()
    controller.start()

    proxy = TrafficProxy(world, controller)
    proxy.start()
    profile = scenario.profile
    traffic = OpenLoopTraffic(world, proxy.ip, proxy.port, profile)

    event_log: list[dict[str, Any]] = []

    def timeline() -> Generator[Any, Any, None]:
        yield world.engine.timeout(WARMUP_US)
        traffic.start()
        if scenario.event is None:
            return
        yield world.engine.timeout(scenario.event_at_us)
        if scenario.event == "failover":
            victim = "node0"
            event_log.append({"event": "failover", "host": victim,
                              "at_us": world.engine.now})
            controller.inject_host_failstop(pool.host(victim))
        elif scenario.event == "migration":
            name = sorted(controller.members)[0]
            dest = _migration_dest(controller, name)
            event_log.append({"event": "migration", "member": name,
                              "dest": dest, "at_us": world.engine.now})
            drained = yield from proxy.drain(name)
            stats = yield from controller.migrate_container(
                name, pool.host(dest)
            )
            proxy.undrain(name)
            event_log.append({
                "event": "migration_done",
                "drained_dry": drained,
                "migrated": stats is not None,
                "at_us": world.engine.now,
            })

    world.engine.process(timeline(), name=f"traffic-timeline-{profile.name}")
    run_until = WARMUP_US + profile.duration_us + tail_us
    world.run(until=run_until)
    proxy.stop()
    controller.stop()

    stats = traffic.stats
    counters = proxy.counters
    metrics = FleetMetrics.collect(controller)

    violations: list[str] = []
    violations += workload.violations()
    violations += controller.audit()
    if stats.errors:
        violations.append(f"{profile.name}: {stats.errors} client error(s)")
    if stats.timeouts:
        violations.append(
            f"{profile.name}: {stats.timeouts} request timeout(s)"
        )
    if stats.validation_failures:
        violations.append(
            f"{profile.name}: {stats.validation_failures} corrupt replies"
        )
    if stats.in_flight():
        violations.append(
            f"{profile.name}: {stats.in_flight()} request(s) never resolved "
            f"(run tail too short or a reply was dropped)"
        )
    if stats.sessions_finished != stats.sessions_started:
        violations.append(
            f"{profile.name}: {stats.sessions_started - stats.sessions_finished}"
            f" session(s) still open at end of run"
        )
    if counters.dropped:
        violations.append(
            f"{profile.name}: proxy dropped {counters.dropped} request(s)"
        )
    if counters.routed != counters.relayed + proxy.inflight():
        violations.append(
            f"{profile.name}: {counters.routed} routed != "
            f"{counters.relayed} relayed + {proxy.inflight()} in flight"
        )
    if scenario.event == "failover" and metrics.total_failovers < 1:
        violations.append(
            f"{profile.name}: host fail-stop injected but no failover ran"
        )
    if scenario.event == "migration":
        done = [e for e in event_log if e["event"] == "migration_done"]
        if not done:
            violations.append(f"{profile.name}: migration never completed")
        elif not (done[0]["drained_dry"] and done[0]["migrated"]):
            violations.append(
                f"{profile.name}: migration ran dirty "
                f"(drained_dry={done[0]['drained_dry']}, "
                f"migrated={done[0]['migrated']})"
            )
    if tracer.dropped:
        violations.append(
            f"{profile.name}: tracer dropped {tracer.dropped} event(s): "
            f"digest is poisoned, raise trace_limit"
        )

    row = SloRow.from_histograms(
        profile.name,
        stats.latency,
        proxy.stall_histogram(),
        requests=stats.completed,
        errors=stats.errors + stats.timeouts + stats.validation_failures,
        peak_sessions=stats.peak_concurrent,
        duration_us=profile.duration_us,
        evictions=counters.evictions,
        drains=counters.drains,
        ok=not violations,
    )
    return {
        "row": row,
        "digest": trace_digest(tracer),
        "trace_events": len(tracer.events),
        "events": event_log,
        "client": stats.to_dict(),
        "proxy": proxy.to_dict(),
        "violations": violations,
    }


def run_traffic_event(
    event: str, seed: int = 1, instrument=None, mode: str = "nilicon"
) -> dict[str, Any]:
    """Run the one smoke profile carrying *event* ("failover" or
    "migration") once — the ftcov coverage runner drives the traffic
    tier's fault/maintenance paths through this without paying for the
    full determinism campaign."""
    matches = [
        s for s in traffic_profiles(smoke=True) if s.event == event
    ]
    if not matches:
        raise KeyError(f"no smoke traffic profile carries event {event!r}")
    fleet = SMOKE_FLEET if mode == SMOKE_FLEET.mode else replace(
        SMOKE_FLEET, mode=mode
    )
    return _run_scenario_once(
        seed, fleet, matches[0], tail_us=sec(2),
        trace_limit=2_000_000, instrument=instrument,
    )


def run_traffic_campaign(
    seed: int = 1, smoke: bool = False, mode: str = "nilicon"
) -> dict[str, Any]:
    """All four profiles, each run twice with the same seed.

    The replay must reproduce the trace digest AND the SLO table digest —
    the client-visible numbers themselves are part of the determinism
    contract, not just the event order behind them.  *mode* selects the
    replication strategy fleet-wide (``nilicon`` or ``hycor``).
    """
    fleet = SMOKE_FLEET if smoke else TRAFFIC_FLEET
    if fleet.mode != mode:
        fleet = replace(fleet, mode=mode)
    tail_us = sec(2) if smoke else sec(3)
    trace_limit = 2_000_000 if smoke else 6_000_000

    table = SloTable()
    replay_table = SloTable()
    profiles: list[dict[str, Any]] = []
    violations: list[str] = []
    for scenario in traffic_profiles(smoke):
        first = _run_scenario_once(
            seed, fleet, scenario, tail_us=tail_us, trace_limit=trace_limit
        )
        second = _run_scenario_once(
            seed, fleet, scenario, tail_us=tail_us, trace_limit=trace_limit
        )
        table.add(first["row"])
        replay_table.add(second["row"])
        violations += first["violations"]
        if first["digest"] != second["digest"]:
            violations.append(
                f"{scenario.profile.name}: nondeterministic trace "
                f"({first['digest']} != {second['digest']})"
            )
        if second["violations"] and not first["violations"]:
            violations.append(
                f"{scenario.profile.name}: replay run violated oracles the "
                f"first run passed"
            )
        profiles.append({
            "name": scenario.profile.name,
            "arrival": scenario.profile.arrival,
            "event": scenario.event,
            "digest": first["digest"],
            "replay_digest": second["digest"],
            "trace_events": first["trace_events"],
            "events": first["events"],
            "client": first["client"],
            "proxy": first["proxy"],
            "violations": first["violations"],
        })
    if table.digest() != replay_table.digest():
        violations.append(
            f"SLO table not replay-identical "
            f"({table.digest()} != {replay_table.digest()})"
        )
    deterministic = all(
        p["digest"] == p["replay_digest"] for p in profiles
    ) and table.digest() == replay_table.digest()
    return {
        "ok": not violations,
        "smoke": smoke,
        "seed": seed,
        "mode": mode,
        "fleet": {
            "containers": fleet.n_containers,
            "hosts": fleet.n_hosts,
            "slots_per_host": fleet.slots_per_host,
        },
        "profiles": profiles,
        "slo": table.to_dict(),
        "slo_digest": table.digest(),
        "replay_slo_digest": replay_table.digest(),
        "deterministic": deterministic,
        "peak_sessions": max(
            (row.peak_sessions for row in table.rows), default=0
        ),
        "violations": violations,
        "table": table.table(),
    }


def format_traffic_campaign(report: dict[str, Any]) -> str:
    lines = [
        f"traffic campaign — {report['fleet']['containers']} members over "
        f"{report['fleet']['hosts']} hosts behind the L7 proxy "
        f"(seed {report['seed']}{', smoke' if report['smoke'] else ''})",
    ]
    for profile in report["profiles"]:
        event = f", {profile['event']}" if profile["event"] else ""
        client = profile["client"]
        lines.append(
            f"  {profile['name']}: {client['sessions_started']} sessions "
            f"(peak {client['peak_concurrent']} concurrent), "
            f"{client['completed']} requests{event} — "
            f"digest {profile['digest']} "
            f"({'replay OK' if profile['digest'] == profile['replay_digest'] else 'DIVERGED'})"
        )
    lines.append(
        f"  SLO digest {report['slo_digest']} — replay "
        f"{'IDENTICAL' if report['deterministic'] else 'DIVERGED'} "
        f"({report['replay_slo_digest']})"
    )
    if report["violations"]:
        lines.append(f"  {len(report['violations'])} violation(s):")
        lines += [f"    - {v}" for v in report["violations"]]
    else:
        lines.append(
            "  all oracles held: zero client errors, zero dropped requests, "
            "drains ran dry"
        )
    lines.append("")
    lines.append(report["table"])
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Bench                                                                  #
# --------------------------------------------------------------------- #
#: Per-profile metrics: (field, unit, gate).
_PROFILE_METRICS = (
    ("p50_us", "us", {}),
    ("p99_us", "us", {"better": "lower"}),
    ("p999_us", "us", {}),
    ("stall_p99_us", "us", {}),
    ("throughput_rps", "req/s", {"better": "higher"}),
    ("requests", "requests", {}),
)


def run_traffic_bench(seed: int = 1) -> dict[str, Any]:
    """Smoke-scale SLO cells for the checked-in BENCH_traffic.json.

    Simulated time makes every percentile exact and replayable, so the
    gate compares cells directly — any drift is a real model change, not
    runner noise."""
    report = run_traffic_campaign(seed=seed, smoke=True)
    return {
        "schema": benchfile.SCHEMA,
        "bench": "traffic",
        "seed": seed,
        "smoke": False,
        "ok": report["ok"],
        "problems": report["violations"],
        "metrics": {
            f"{row['workload']}.{field}": {
                "value": row[field], "unit": unit, **gate,
            }
            for row in report["slo"]["rows"]
            for field, unit, gate in _PROFILE_METRICS
        },
        "info": {"slo_digest": report["slo_digest"]},
    }
