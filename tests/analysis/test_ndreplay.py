"""Record→replay oracle tests (ndflow Layer 3).

With the knob off, every catalog workload replays digest-identical from
seed + NDLog alone; the regression cells of every pass arm
``unsafe_unlogged_draw`` and the oracle must detect the divergence — the
dynamic half of the two-witness pattern (the static half is the frozen
NDF001/NDF003 baseline, pinned in test_ndflow.py).
"""

import json
from pathlib import Path

import pytest

from repro.analysis import ndreplay
from repro.analysis.ndreplay import (
    DEFAULT_RUN_MS,
    DEFAULT_SEEDS,
    DEFAULT_WORKLOADS,
    crossref_streams,
    run_oracle,
    run_roundtrip,
)
from repro.experiments.paper import paper_metrics, run_paper
from repro.metrics import benchfile
from repro.replication.config import NiliconConfig
from repro.workloads.catalog import WORKLOADS

BENCH = Path(__file__).resolve().parents[2] / "BENCH_paper.json"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_catalog_workload_replays_identical(workload):
    cell = run_roundtrip(workload, seed=1, run_ms=DEFAULT_RUN_MS)
    assert cell["divergence"] is None
    assert cell["unconsumed"] == {}
    assert cell["identical"], cell
    assert cell["n_draws"] > 0  # the log is doing real work


def test_replay_consumes_serialized_log_only():
    # run_roundtrip round-trips through to_dict/from_dict; this pins the
    # stronger property that the JSON wire form suffices too.
    from repro.analysis.fuzz import PermutedTieBreak, run_instrumented
    from repro.net.world import reset_id_counters
    from repro.sim.ndlog import NDLog

    reset_id_counters()
    record_log = NDLog(mode="record")
    recorded = run_instrumented(
        "net", 1, run_ms=400, tiebreak=PermutedTieBreak(1),
        schedule_name="ndlog-record", detect=False, ndlog=record_log)
    wire = json.dumps(record_log.to_dict())

    reset_id_counters()
    replay_log = NDLog.from_dict(json.loads(wire), mode="replay")
    replayed = run_instrumented(
        "net", 1, run_ms=400, tiebreak=None,
        schedule_name="ndlog-replay", detect=False, ndlog=replay_log)
    assert replayed.trace_digest == recorded.trace_digest
    assert replayed.metrics_digest == recorded.metrics_digest
    assert replay_log.unconsumed() == {}


@pytest.fixture(scope="module")
def smoke():
    return run_oracle(smoke=True)


def test_oracle_smoke_matrix_is_clean(smoke):
    assert smoke["ok"]
    assert [(c["workload"], c["seed"]) for c in smoke["cells"]] == [
        ("net", 1), ("disk-rw", 1)]
    assert all(cell["identical"] for cell in smoke["cells"])


def test_knob_divergence_is_detected(smoke):
    # The dynamic witness: with the unlogged draw armed the same grid must
    # diverge somewhere (any-cell — the draw is OS entropy).
    regression = smoke["regression"]
    assert [(c["workload"], c["seed"]) for c in regression] == [
        ("net", 1), ("disk-rw", 1)]
    assert smoke["regression_diverged"]
    diverged = [c for c in regression if not c["identical"]]
    assert diverged
    for cell in diverged:
        # Divergence is actionable: either the exact decision is named or
        # the digests disagree.
        assert (
            cell["divergence"] is not None
            or cell.get("replay_trace_digest") != cell["record_trace_digest"]
            or cell["unconsumed"]
            or cell.get("replay_ndlog_digest") != cell["ndlog_digest"]
        )


def test_neutralised_regression_fails_the_pass(monkeypatch):
    # With the override emptied the regression cells replay clean, so the
    # pass has not shown it can catch an unlogged draw: it must fail.
    monkeypatch.setattr(ndreplay, "_REGRESSION", {})
    report = run_oracle(smoke=True)
    assert all(cell["identical"] for cell in report["cells"])
    assert not report["regression_diverged"]
    assert not report["ok"]
    assert "MISSED" in ndreplay.format_report(report)


def test_knob_divergence_names_the_stream_when_log_exhausts():
    # Run single cells until one produces a named divergence (the other
    # failure mode is a digest mismatch); bounded to keep the test fast.
    config = NiliconConfig.nilicon().with_(unsafe_unlogged_draw=True)
    for _ in range(5):
        cell = run_roundtrip("disk-rw", seed=1, run_ms=600, config=config)
        if cell["divergence"] is not None:
            # The OS-entropy jitter means the first divergent draw can land
            # on the tiebreak stream or exhaust a workload stream; either
            # way the message must name the stream and draw index.
            assert "#" in cell["divergence"], cell["divergence"]
            return
        if not cell["identical"]:
            return  # diverged via digests: still caught, accept
    pytest.fail("knob never diverged in 5 attempts")


def test_record_mode_crossrefs_every_stream(smoke):
    # The oracle's record halves feed the crossref: no second pass.  At
    # smoke, disk-rw draws a registry stream besides the tie-break.
    crossref = smoke["crossref"]
    assert crossref["unmatched"] == []
    assert "engine.tiebreak" in crossref["matched"]
    assert "microbench.py" in crossref["matched"]["disk-rw"]
    # The kv client stream maps to its static call site.
    cell = run_roundtrip("ssdb", 1, run_ms=500)
    kv = crossref_streams(cell["streams"])
    assert kv["unmatched"] == []
    assert any(name.startswith("kv-client") for name in kv["matched"])


def test_crossref_reports_inventory_gaps():
    # Against an inventory holding only literal sites, an unknown runtime
    # stream is an inventory gap.
    from repro.analysis.ndflow import build_nd_inventory

    inv = build_nd_inventory({
        "src/repro/zz_mod.py":
            "def a(w):\n    return w.rng.stream('zz-known')\n",
    })
    result = crossref_streams(
        {"zz-known": 1, "zz-stream-nobody-mints": 3}, inventory=inv)
    assert result["unmatched"] == ["zz-stream-nobody-mints"]
    assert result["matched"]["zz-known"] == "src/repro/zz_mod.py:2"


@pytest.mark.parametrize("knob", [None, "unsafe-unlogged-draw"])
def test_unmatched_stream_fails_the_oracle_under_both_polarities(monkeypatch, knob):
    # Cells stubbed with the verdict each half wants (clean identical,
    # regression diverged); only the crossref, against an inventory holding
    # one literal site, can fail — whichever half (*knob*) drew the stray
    # stream.
    from repro.analysis.ndflow import build_nd_inventory

    inv = build_nd_inventory({
        "src/repro/zz_mod.py":
            "def a(w):\n    return w.rng.stream('zz-known')\n",
    })
    monkeypatch.setattr(ndreplay, "crossref_streams",
                        lambda draws, _inventory: crossref_streams(draws, inv))
    stray: dict[str, int] = {}

    def cell(workload, seed, config):
        armed = config.unsafe_unlogged_draw
        streams = {"zz-known": 2}
        if armed == (knob is not None):
            streams.update(stray)
        return {"identical": not armed, "streams": streams}

    monkeypatch.setattr(ndreplay, "run_roundtrip", cell)
    assert run_oracle(smoke=True)["ok"]
    stray["zz-stream-nobody-mints"] = 1
    report = run_oracle(smoke=True)
    assert not report["ok"]
    assert report["crossref"]["unmatched"] == ["zz-stream-nobody-mints"]


def test_crossref_real_tree_leaves_unknown_streams_unmatched():
    # No stream or spawn site of the real tree can mint an arbitrary name,
    # so a stream nobody mints is an inventory gap, and each real stream
    # maps to the site that mints it.
    from repro.analysis.ndflow import analyze_ndflow
    from repro.analysis.ndreplay import _site_patterns

    result = crossref_streams(
        {"totally.bogus": 1, "traffic.steady": 1, "disk-rw": 1})
    assert result["unmatched"] == ["totally.bogus"]
    assert "traffic/openloop.py" in result["matched"]["traffic.steady"]
    assert "workloads/microbench.py" in result["matched"]["disk-rw"]
    sites = [src for src in analyze_ndflow().inventory.sites
             if src.kind in ("stream", "spawn")]
    assert sites
    for src in sites:
        assert r".+\Z" not in _site_patterns(src), f"{src.path}:{src.line}"


def test_golden_ndlog_digests_match_checked_in_file():
    """The NDLog digest of every replay-grid cell is the paper gate's
    ``determinism.*.ndlog_digest`` cell: a diff here means either a
    deliberate protocol/draw change (re-pin with ``repro paper bench --out
    BENCH_paper.json``) or an accidental nondeterminism regression in the
    recorded streams."""
    metrics = {name: metric for name, metric in
               paper_metrics(run_paper(smoke=True, names=["determinism"])).items()
               if name.endswith(".ndlog_digest")}
    pinned = {name: metric for name, metric in benchfile.load(BENCH)["metrics"].items()
              if name.startswith("determinism.") and name.endswith(".ndlog_digest")}
    assert len(pinned) == len(DEFAULT_WORKLOADS) * len(DEFAULT_SEEDS)
    assert metrics == pinned
