"""Tests for the ftcov coverage recorder, crossref and catalog pass.

The crossref gap logic and the derived drop-scenario probe are pure
(runs/counters + inventory in, gaps out), so every gap kind and probe
verdict is pinned on synthetic inputs; the pass tests use small catalog
subsets to keep the determinism and cell-independence checks fast, plus
one pair-only pass whose derived probe is the dynamic half of the
two-witness story.
"""

import pytest

from repro.analysis.ftcov import FtInventory, FtSite, analyze_ftcov
from repro.analysis.ftreplay import (
    CatalogCell,
    FtcovRecorder,
    catalog_cells,
    crossref_coverage,
    merge_counters,
    probe_drop_scenario,
    run_ftcov_record,
)
from repro.experiments.faultcampaign import run_phase_injection
from repro.faultinject.scenarios import SCENARIOS, UNSAFE_DROP_SCENARIO
from repro.fleet.scenarios import FLEET_SCENARIOS, run_fleet_scenario


def _site(kind, name, **kw):
    return FtSite(kind=kind, path="zz.py", line=1, col=0, node=None,
                  name=name, **kw)


def _inventory():
    inv = FtInventory()
    inv.declared_edges = {"a->b", "b->c"}
    inv.claimed_edges = {"a->b"}
    for site in (
        _site("point", "zz.point", auto="exercised"),
        _site("edge", "a->b", auto="exercised"),
        _site("edge", "b->c", annotated="backlog",
              why="scenario: zz.missing"),
        _site("handler", "zz.recover", hook="zz.recover",
              auto="exercised"),
        _site("inject", "inject_zz", hook="zz.inject", auto="exercised"),
    ):
        inv.add(site)
    return inv


_FULL = {
    "point:zz.point": 5,
    "fired:zz.point": 1,
    "edge:a->b": 2,
    "handler:zz.recover": 1,
    "inject:zz.inject": 1,
}


def test_recorder_counts_and_digests_deterministically():
    a, b = FtcovRecorder(), FtcovRecorder()
    for rec in (a, b):
        rec.record("point", "zz.point")
        rec.record("point", "zz.point")
        rec.record("edge", "a->b")
    assert a.counters == {"point:zz.point": 2, "edge:a->b": 1}
    assert a.digest() == b.digest()
    assert len(a.digest()) == 8


def test_crossref_clean_when_everything_is_covered():
    report = crossref_coverage(_FULL, _inventory())
    assert report["gaps"] == []
    assert report["missing_scenarios"] == [
        {"edge": "b->c", "scenario": "zz.missing"}
    ]
    assert report["points"]["zz.point"] == {"reached": 5, "fired": 1}


@pytest.mark.parametrize("missing,expected", [
    ("point:zz.point", "point-unreached:zz.point"),
    ("fired:zz.point", "point-unfired:zz.point"),
    ("edge:a->b", "edge-unobserved:a->b"),
    ("handler:zz.recover", "handler-unentered:zz.recover"),
    ("inject:zz.inject", "inject-unused:zz.inject"),
])
def test_crossref_detects_each_gap_kind(missing, expected):
    counters = {k: v for k, v in _FULL.items() if k != missing}
    gaps = crossref_coverage(counters, _inventory())["gaps"]
    assert any(g.startswith(expected) for g in gaps)
    assert len(gaps) == 1


def test_crossref_flags_driven_backlog_edge_as_stale():
    counters = dict(_FULL, **{"edge:b->c": 1})
    report = crossref_coverage(counters, _inventory())
    assert any(g.startswith("stale-backlog:b->c") for g in report["gaps"])
    assert report["missing_scenarios"] == []


def test_crossref_flags_observed_undeclared_edge():
    counters = dict(_FULL, **{"edge:c->d": 1})
    gaps = crossref_coverage(counters, _inventory())["gaps"]
    assert any(g.startswith("undeclared-edge:c->d") for g in gaps)


def _probe_inventory():
    inv = FtInventory()
    for name in ("backup.mid_commit", "zz.other"):
        inv.add(_site("point", name, auto="exercised"))
    return inv


_REACHED = {"point:backup.mid_commit": 1, "point:zz.other": 1}


@pytest.mark.parametrize("dropped,kept,detected,unexpected", [
    # Only the dropped scenario fires the point: exactly the seeded gap.
    ({"fired:backup.mid_commit": 1}, {"fired:zz.other": 1}, True, []),
    # A second scenario fires it too: the drop adds nothing (MISSING).
    ({"fired:backup.mid_commit": 1},
     {"fired:backup.mid_commit": 1, "fired:zz.other": 1}, False, []),
    # The dropped scenario alone also fires another point: two gaps.
    ({"fired:backup.mid_commit": 1, "fired:zz.other": 1}, {}, True,
     ["point-unfired:zz.other"]),
])
def test_drop_probe_on_synthetic_runs(dropped, kept, detected, unexpected):
    runs = [
        {"kind": "pair", "name": UNSAFE_DROP_SCENARIO, "counters": dropped},
        {"kind": "pair", "name": "zz.keep", "counters": {**_REACHED, **kept}},
    ]
    inventory = _probe_inventory()
    merged = merge_counters(runs)
    gaps = crossref_coverage(merged, inventory)["gaps"]
    assert gaps == []
    probe = probe_drop_scenario(runs, gaps, inventory)
    assert probe["expected_gap"] == "point-unfired:backup.mid_commit"
    assert probe["seeded_gap_detected"] is detected
    assert [g.split(" ", 1)[0] for g in probe["unexpected_gaps"]] == unexpected
    assert probe["ok"] is (detected and not unexpected)


def test_smoke_pass_is_the_union_of_the_catalogs():
    cells = catalog_cells(smoke=True)
    pair = [c for c in cells if c.kind == "pair"]
    assert {c.name for c in pair} == set(SCENARIOS)
    assert {(c.workload, c.seed) for c in pair} == {
        ("net-echo", 101), ("net-echo", 102), ("net-echo", 103)}
    assert {(c.name, c.seed) for c in cells if c.kind == "fleet"} == {
        (name, seed) for name in FLEET_SCENARIOS for seed in (1, 7)}
    assert [(c.name, c.seed) for c in cells if c.kind == "traffic"] == [
        ("failover", 1), ("migration", 1)]
    assert len(cells) == 80
    full = catalog_cells()
    assert len([c for c in full if c.kind == "pair"]) == len(SCENARIOS) * 10


_SUBSET = [
    CatalogCell("pair", "crash@primary.post_freeze", 101, "net-echo"),
    CatalogCell("fleet", "fleet.both_hosts_failstop", 7),
]


@pytest.fixture(scope="module")
def inventory():
    return analyze_ftcov().inventory


@pytest.fixture(scope="module")
def subset_report(inventory):
    return run_ftcov_record(inventory, cells=_SUBSET)


def test_record_report_shape(subset_report):
    assert subset_report["runs_ok"]
    assert subset_report["smoke"] is False
    pair, fleet = subset_report["runs"]
    assert pair["kind"] == "pair" and pair["workload"] == "net-echo"
    assert pair["name"] == "crash@primary.post_freeze"
    assert pair["seed"] == 101 and pair["ok"] and pair["violations"] == []
    assert pair["counters"]["fired:primary.post_freeze"] == 1
    assert pair["counters"]["inject:replication.fail_stop"] >= 1
    assert fleet["kind"] == "fleet" and fleet["workload"] is None
    # The subset leaves most of the surface unwalked, and it does not run
    # the dropped scenario, so the probe has nothing to take away.
    assert subset_report["gaps"]
    assert not subset_report["drop_probe"]["seeded_gap_detected"]
    assert not subset_report["ok"]


def test_record_subset_is_deterministic(subset_report, inventory):
    second = run_ftcov_record(inventory, cells=_SUBSET)
    assert second["runs_ok"]
    assert second["counters"] == subset_report["counters"]
    assert second["digest"] == subset_report["digest"]


def test_per_cell_recorders_sum_to_one_shared_recorder(subset_report):
    """The derived probe subtracts runs from the merged counters, which
    is sound only if no cell's counts depend on another cell."""
    shared = FtcovRecorder()
    run_phase_injection("net-echo", "crash@primary.post_freeze", 101,
                        instrument=shared.install)
    run_fleet_scenario("fleet.both_hosts_failstop", seed=7,
                       instrument=shared.install)
    assert subset_report["counters"] == dict(sorted(shared.counters.items()))
    assert subset_report["digest"] == shared.digest()


def test_drop_scenario_knob_detects_the_seeded_gap(inventory):
    cells = [c for c in catalog_cells(smoke=True)
             if c.kind == "pair" and c.seed == 101]
    report = run_ftcov_record(inventory, cells=cells)
    assert len(report["runs"]) == len(SCENARIOS)
    assert report["runs_ok"]
    probe = report["drop_probe"]
    assert probe["seeded_gap_detected"]
    assert probe["unexpected_gaps"] == []
    assert probe["ok"]
    # The pass itself still ran the dropped scenario: the probe is derived.
    assert not any(g.startswith(probe["expected_gap"])
                   for g in report["gaps"])
