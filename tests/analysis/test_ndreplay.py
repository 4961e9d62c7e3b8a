"""Record→replay oracle tests (ndflow Layer 3).

The ISSUE acceptance criteria live here: with the knob off, every
catalog workload replays digest-identical from seed + NDLog alone; with
``unsafe_unlogged_draw`` armed, the oracle detects the divergence — the
dynamic half of the two-witness pattern (the static half is the frozen
NDF001/NDF003 baseline, pinned in test_ndflow.py).
"""

import json
from pathlib import Path

import pytest

from repro.analysis.ndreplay import (
    DEFAULT_RUN_MS,
    DEFAULT_SEEDS,
    DEFAULT_WORKLOADS,
    crossref_streams,
    golden_ndlog_digests,
    run_oracle,
    run_roundtrip,
)
from repro.replication.config import NiliconConfig
from repro.workloads.catalog import WORKLOADS

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "golden" / "ndlog_digests.json")


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


def test_oracle_smoke_matrix_is_clean():
    report = run_oracle(("net",), (1,), run_ms=500)
    assert report["ok"]
    assert all(cell["identical"] for cell in report["cells"])


def test_knob_divergence_is_detected():
    # The dynamic witness: with the unlogged draw armed the sweep must
    # diverge somewhere (any-cell — the draw is OS entropy).
    report = run_oracle(("net", "disk-rw"), (1, 2), run_ms=600,
                        knob="unsafe-unlogged-draw")
    assert report["knob"] == "unsafe-unlogged-draw"
    assert report["ok"], "oracle failed to catch the unlogged-draw knob"
    diverged = [c for c in report["cells"] if not c["identical"]]
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


def test_unknown_knob_is_rejected():
    with pytest.raises(KeyError):
        run_oracle(("net",), (1,), knob="zz-no-such-knob")


def test_record_mode_crossrefs_every_stream():
    # The oracle's record halves feed the crossref: no second pass.
    report = run_oracle(("ssdb",), (1,), run_ms=500)
    assert report["ok"]
    crossref = report["crossref"]
    assert crossref["unmatched"] == []
    # The tie-break stream maps to the built-in; the kv client stream maps
    # to its static call site.
    assert "engine.tiebreak" in crossref["matched"]
    assert any(name.startswith("kv-client") for name in crossref["matched"])


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
    # Cells stubbed with the verdict each polarity wants; only the
    # crossref, against an inventory holding one literal site, can fail.
    from functools import partial

    from repro.analysis import ndreplay
    from repro.analysis.ndflow import build_nd_inventory

    inv = build_nd_inventory({
        "src/repro/zz_mod.py":
            "def a(w):\n    return w.rng.stream('zz-known')\n",
    })
    monkeypatch.setattr(ndreplay, "crossref_streams",
                        partial(crossref_streams, inventory=inv))
    streams = {"zz-known": 2}
    monkeypatch.setattr(ndreplay, "run_roundtrip", lambda *a, **k: {
        "identical": knob is None, "streams": dict(streams)})
    assert run_oracle(("net",), (1,), knob=knob)["ok"]
    streams["zz-stream-nobody-mints"] = 1
    report = run_oracle(("net",), (1,), knob=knob)
    assert not report["ok"]
    assert report["crossref"]["unmatched"] == ["zz-stream-nobody-mints"]


def test_crossref_wildcard_site_claims_caller_chosen_names():
    # openloop's rng_name parameter can mint any name, so unknown streams
    # legitimately map there against the real tree — most-specific literal
    # and f-string sites still win for the names they match.
    result = crossref_streams({"zz-stream-nobody-mints": 3})
    assert result["unmatched"] == []
    assert "openloop" in result["matched"]["zz-stream-nobody-mints"]


def test_golden_ndlog_digests_match_checked_in_file():
    """Pin the NDLog digests: a diff here means either a deliberate
    protocol/draw change (regenerate with `make golden-regen`) or an
    accidental nondeterminism regression in the recorded streams."""
    on_disk = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    recomputed = golden_ndlog_digests(run_oracle())
    assert on_disk["run_ms"] == DEFAULT_RUN_MS
    cells = [k for k in on_disk if k != "run_ms"]
    assert len(cells) == len(DEFAULT_WORKLOADS) * len(DEFAULT_SEEDS)
    for cell in cells:
        assert on_disk[cell] == recomputed[cell], cell
