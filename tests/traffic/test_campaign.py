"""Traffic campaign oracles: zero drops across faults, replay-identical SLOs."""

from repro.experiments.traffic import (
    SMOKE_FLEET,
    _run_scenario_once,
    run_traffic_campaign,
    traffic_profiles,
)
from repro.sim.units import sec


def _scenario(name: str):
    for scenario in traffic_profiles(smoke=True):
        if scenario.profile.name == name:
            return scenario
    raise KeyError(name)


def _run(name: str):
    return _run_scenario_once(
        3, SMOKE_FLEET, _scenario(name), tail_us=sec(2),
        trace_limit=2_000_000,
    )


def test_failstop_drops_no_inflight_requests():
    """A host fail-stop under open-loop load: every request sent before,
    during and after the outage resolves — zero errors, zero timeouts,
    zero proxy drops; the outage shows up only in the latency tail."""
    result = _run("failover")
    assert result["violations"] == []
    client = result["client"]
    assert client["errors"] == 0
    assert client["timeouts"] == 0
    assert client["completed"] == client["sent"]
    assert result["proxy"]["dropped"] == 0
    assert result["proxy"]["routed"] == result["proxy"]["relayed"]
    assert any(e["event"] == "failover" for e in result["events"])


def test_migration_drains_dry_and_drops_nothing():
    """drain -> migrate_container -> undrain: the cutover happens with the
    moving member's in-flight count at zero, and no request is lost."""
    result = _run("migration")
    assert result["violations"] == []
    done = [e for e in result["events"] if e["event"] == "migration_done"]
    assert done and done[0]["drained_dry"] and done[0]["migrated"]
    client = result["client"]
    assert client["errors"] == 0
    assert client["completed"] == client["sent"]
    assert result["proxy"]["dropped"] == 0
    assert result["row"].drains == 1


def test_same_seed_scenarios_replay_identically():
    """PR 5's campaign convention applied to client-visible numbers: the
    trace digest AND every SLO cell must reproduce under the same seed."""
    first = _run("steady")
    second = _run("steady")
    assert first["digest"] == second["digest"]
    assert first["row"] == second["row"]
    assert first["client"] == second["client"]


def test_different_seeds_diverge():
    scenario = _scenario("steady")
    a = _run_scenario_once(3, SMOKE_FLEET, scenario, tail_us=sec(2),
                           trace_limit=2_000_000)
    b = _run_scenario_once(4, SMOKE_FLEET, scenario, tail_us=sec(2),
                           trace_limit=2_000_000)
    assert a["digest"] != b["digest"]


def test_smoke_campaign_green_and_deterministic():
    report = run_traffic_campaign(seed=1, smoke=True)
    assert report["ok"], report["violations"]
    assert report["deterministic"]
    assert report["slo_digest"] == report["replay_slo_digest"]
    assert {p["name"] for p in report["profiles"]} == {
        "steady", "bursty", "failover", "migration",
    }
    # The open-loop generator actually sustained concurrent sessions.
    assert report["peak_sessions"] >= 30
