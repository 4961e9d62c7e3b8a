"""The fleet acceptance campaign and scaling sweeps (the paper gate's fleet cells)."""

from pathlib import Path

from repro.analysis.fuzz import trace_digest
from repro.experiments.fleet import _ring_decisions, _survivable_victims, replayed
from repro.experiments.paper import paper_metrics, paper_problems, run_paper
from repro.fleet import FleetSpec, open_fleet
from repro.metrics import benchfile
from repro.sim.units import ms, sec

BENCH = Path(__file__).resolve().parents[2] / "BENCH_paper.json"


def test_smoke_campaign_passes_and_replays_identically():
    """The campaign runs at its full parameters in the smoke gate too, so
    its cells (the trace digest and its replay's among them) equal the
    checked-in full report's."""
    results = run_paper(smoke=True, names=["fleet_campaign"])
    (row,) = results["fleet_campaign"]
    assert row["violations"] == []
    # Phase shape: one sequential single-host loss, one concurrent double.
    assert row["phases"] == "600 ms node0; 2000 ms node2+node4"
    metrics = paper_metrics(results)
    assert paper_problems(metrics, smoke=True) == []
    pinned = benchfile.load(BENCH)["metrics"]
    assert metrics == {name: pinned[name] for name in metrics}


def test_campaign_digest_tracks_fleet_shape():
    """The digest is a pure function of the run: a different fleet shape
    must change it.  (Different *seeds* legitimately may not: the counter
    pipeline draws nothing from the world RNG, and the digest is
    timestamp-free by design.)"""
    digests = []
    for fleet in (FleetSpec(n_containers=12, n_hosts=6, slots_per_host=10),
                  FleetSpec(n_containers=6, n_hosts=6, slots_per_host=10)):
        cell = open_fleet(1, fleet, decisions=_ring_decisions(fleet),
                          trace_limit=2_000_000, n_requests=12, gap_us=ms(25))
        cell.fail_host_at(ms(600), "node0")
        cell.run(sec(2))
        assert cell.violations() == []
        digests.append((trace_digest(cell.tracer), len(cell.tracer.events)))
    (a, a_events), (b, b_events) = digests
    assert a != b
    assert a_events > b_events > 1000


def test_replayed_flags_every_mismatch():
    runs = iter([{"digest": "a", "row": 1, "violations": []},
                 {"digest": "b", "row": 2, "violations": ["late"]}])
    record = replayed(lambda: next(runs), "row")
    assert record["replay_digest"] == "b"
    assert [v.split(" ", 3)[2] for v in record["violations"][:2]] == ["digest", "row"]
    assert record["violations"][2] == "replay run violated oracles the first run passed"
    same = replayed(lambda: {"digest": "a", "violations": []})
    assert same["violations"] == [] and same["replay_digest"] == "a"


def test_smoke_bench_shapes_and_oracles():
    results = run_paper(smoke=True, names=["fleet_pair", "fleet_pool"])
    metrics = paper_metrics(results)
    assert paper_problems(metrics, smoke=True) == []
    assert {name.rsplit(".", 1)[0] for name in metrics} == {
        "fleet_pair.1", "fleet_pair.2", "fleet_pool.4", "fleet_pool.6",
    }
    for hosts in (4, 6):
        assert metrics[f"fleet_pool.{hosts}.failovers"]["value"] >= 1
        # Smoke runs full-size pool cells: all 12 members re-protected.
        assert metrics[f"fleet_pool.{hosts}.protected_at_end"]["value"] == 12
    assert metrics["fleet_pair.2.throughput_rps"]["unit"] == "req/s"
    # Smoke cells run at full-run parameters, so they equal the same
    # cells of the checked-in full paper bench exactly.
    pinned = benchfile.load(BENCH)
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
