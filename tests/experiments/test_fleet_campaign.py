"""The fleet acceptance campaign and scaling benches (smoke variants)."""

from pathlib import Path

from repro.experiments.fleet import (
    _survivable_victims,
    format_campaign,
    run_fleet_bench,
    run_fleet_campaign,
)
from repro.metrics import benchfile


def test_smoke_campaign_passes_and_replays_identically():
    report = run_fleet_campaign(seed=1, smoke=True)
    assert report["ok"], report["violations"]
    assert report["deterministic"]
    assert report["digest"] == report["replay_digest"]
    # Seeded, so the trace digest is pinned: a change to the campaign's
    # simulated behaviour must update it here on purpose.
    assert report["digest"] == "2625ef0c"
    assert report["metrics"]["protected_members"] == 12
    assert report["metrics"]["dead_members"] == 0
    assert report["metrics"]["total_failovers"] >= 2
    # Phase shape: one sequential single-host loss, one concurrent double.
    assert [p["phase"] for p in report["phases"]] == [
        "sequential", "concurrent",
    ]
    assert len(report["phases"][1]["hosts"]) == 2
    assert "IDENTICAL" in format_campaign(report)


def test_campaign_digest_tracks_fleet_shape():
    """The digest is a pure function of the run: a different fleet shape
    must change it.  (Different *seeds* legitimately may not: the counter
    pipeline draws nothing from the world RNG, and the digest is
    timestamp-free by design.)"""
    from repro.fleet import FleetSpec

    a = run_fleet_campaign(seed=1, smoke=True)
    b = run_fleet_campaign(
        seed=1, smoke=True,
        fleet=FleetSpec(n_containers=6, n_hosts=6, slots_per_host=10),
    )
    assert a["ok"], a["violations"]
    assert b["ok"], b["violations"]
    assert a["digest"] != b["digest"]
    assert a["trace_events"] > b["trace_events"] > 1000


def test_smoke_bench_shapes_and_oracles():
    report = run_fleet_bench(seed=1, smoke=True)
    assert report["ok"], report["problems"]
    metrics = report["metrics"]
    assert {name.split(".")[0] for name in metrics} == {
        "pair1", "pair2", "hosts4", "hosts6",
    }
    for hosts in (4, 6):
        assert metrics[f"hosts{hosts}.failovers"]["value"] >= 1
        # Smoke runs full-size pool cells: all 12 members re-protected.
        assert metrics[f"hosts{hosts}.protected_at_end"]["value"] == 12
    assert "req/s" in benchfile.format(report)
    # Smoke cells run at full-run parameters, so they equal the same
    # cells of the checked-in full bench exactly.
    pinned = benchfile.load(
        Path(__file__).resolve().parents[2] / "BENCH_fleet.json"
    )
    assert metrics == {name: pinned["metrics"][name] for name in metrics}


def test_survivable_victims_skips_spanned_pairs():
    """The concurrent phase must never pick a host pair that holds both
    replicas of one member."""
    class FakeHost:
        def __init__(self, name):
            self.name = name

    class FakeMember:
        def __init__(self, primary, backup):
            self.state = "protected"
            self.primary = primary
            self.backup = backup

    class FakePool:
        def __init__(self, names):
            self._hosts = [FakeHost(n) for n in names]

        def alive_hosts(self):
            return self._hosts

    class FakeController:
        def __init__(self):
            # svc0 spans (node0, node1); primaries live on node0/node2.
            self.members = {
                "svc0": FakeMember("node0", "node1"),
                "svc1": FakeMember("node2", "node1"),
            }
            self.pool = FakePool(["node0", "node1", "node2"])

    assert _survivable_victims(FakeController()) == ("node0", "node2")
