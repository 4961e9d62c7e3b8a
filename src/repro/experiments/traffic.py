"""Traffic-tier experiments: the open-loop SLO profiles.

Four workload profiles run against a proxied fleet, each in its own
:func:`~repro.fleet.service.open_fleet` world, each TWICE with the same
seed (:func:`repro.experiments.fleet.replayed`: the replay must reproduce
both the trace digest *and* the profile's SLO row):

* **steady** — constant-rate Poisson arrivals: the baseline
  client-visible cost of output commit (latency quantized to epoch
  boundaries shows up as the p99/p999 plateau).
* **bursty** — on/off arrivals; bursts land inside single epochs, so the
  stall distribution widens while p50 barely moves.
* **failover** — steady arrivals across a host fail-stop: requests in
  flight ride TCP repair to the promoted backup, and the outage appears
  as the stall-max column, not as errors.
* **migration** — steady arrivals across a planned
  ``migrate_container``, wrapped in proxy drain/undrain so the cutover
  happens with zero requests in flight on the moving member.

Oracles per profile: the shared fleet oracles
(:meth:`~repro.fleet.service.FleetCell.violations`), zero client errors,
zero request timeouts, zero validation failures, zero proxy drops, every
routed request relayed, and (scenario profiles) the failover/migration
actually happened.

Because the clock is simulated, every latency percentile is exact and
replayable.  :func:`run_slo_rows` is two artifacts of the paper gate
(:mod:`repro.experiments.paper`): the smoke-scale profiles are
``traffic`` (in the smoke run too) and the full-scale ones, whose steady
profile sustains over 1000 concurrent sessions, are ``traffic_full``
(full run only).  Each profile's :data:`SLO_COLUMNS` are pinned exactly in
``BENCH_paper.json`` as ``<artifact>.<profile>.<column>``, and its
violations (replay mismatches included) must be zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Generator

from repro.analysis.fuzz import trace_digest
from repro.experiments.fleet import replayed
from repro.fleet.controller import FleetController
from repro.fleet.metrics import FleetMetrics
from repro.fleet.service import open_fleet
from repro.fleet.spec import FleetSpec
from repro.metrics.slo import SloRow
from repro.sim.units import ms, sec
from repro.traffic.openloop import OpenLoopTraffic, TrafficProfile
from repro.traffic.proxy import TrafficProxy

__all__ = [
    "SLO_COLUMNS",
    "run_slo_rows",
    "run_traffic_event",
    "traffic_profiles",
]

#: The full-scale fleet: same shape as the fleet campaign's (12 members on
#: 6 hosts), so the SLO rows describe the cluster the rest of the
#: evaluation uses.
TRAFFIC_FLEET = FleetSpec(n_containers=12, n_hosts=6, slots_per_host=10)
SMOKE_FLEET = FleetSpec(n_containers=6, n_hosts=6, slots_per_host=8)

#: Traffic starts after protection settles so the SLO rows measure the
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
    """The four workload scenarios, at smoke or full scale.

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
) -> dict[str, Any]:
    """One profile in a fresh world; returns the flat result record.

    The replication strategy comes from ``fleet.mode`` (the controller
    folds it into its config), so a HyCoR run passes a fleet spec with
    ``mode="hycor"`` rather than a different config object.
    """
    # Services only: the proxy's open-loop sessions ARE the clients.
    cell = open_fleet(seed, fleet, instrument=instrument, trace_limit=trace_limit)
    world, pool, controller = cell.world, cell.pool, cell.controller
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
    cell.run(run_until)
    proxy.stop()

    stats = traffic.stats
    counters = proxy.counters
    metrics = FleetMetrics.collect(controller)

    violations = cell.violations()
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
        "digest": trace_digest(cell.tracer),
        "trace_events": len(cell.tracer.events),
        "events": event_log,
        "client": stats.to_dict(),
        "proxy": proxy.to_dict(),
        "violations": violations,
    }


def run_traffic_event(
    event: str, seed: int = 1, instrument=None, mode: str = "nilicon"
) -> dict[str, Any]:
    """Run the one smoke profile carrying *event* ("failover" or
    "migration") once, without its replay: the ftcov coverage runner
    drives the traffic tier's fault/maintenance paths through this, and
    the HyCoR comparison runs its failover under ``mode="hycor"``."""
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


#: The SLO columns the paper gate pins per profile.
SLO_COLUMNS = ("p50_us", "p99_us", "p999_us", "stall_p99_us", "throughput_rps", "requests",
               "peak_sessions")


def run_slo_rows(seed: int = 1, smoke: bool = True) -> list[dict[str, Any]]:
    """The four profiles at smoke or full scale, each replayed: the paper
    gate's ``traffic`` (*smoke*) or ``traffic_full`` rows, each profile's
    :data:`SLO_COLUMNS` and its violations, replay mismatches included."""
    fleet = SMOKE_FLEET if smoke else TRAFFIC_FLEET
    knobs = dict(tail_us=sec(2) if smoke else sec(3),
                 trace_limit=2_000_000 if smoke else 6_000_000)
    rows = []
    for scenario in traffic_profiles(smoke):
        record = replayed(partial(_run_scenario_once, seed, fleet, scenario, **knobs), "row")
        rows.append({"profile": scenario.profile.name,
                     **{column: getattr(record["row"], column) for column in SLO_COLUMNS},
                     "violations": record["violations"]})
    return rows
