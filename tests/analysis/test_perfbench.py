"""Tests for perf Layer 3: deterministic profiling, the L2<->L3
cross-reference, the engine bench's exact work metrics, and the checks
it folds into its ``ok``.

The load-bearing property is ISSUE acceptance: two same-seed profiled
runs must produce *identical* counter digests.  The cross-reference tests
pin the knob regression end to end — ``perf_unoptimized_digest`` re-hashes
every resident page, so on a memory-heavy workload the statecache PERF002
finding is confirmed-hot; a short run of the page-light ``net`` workload
downgrades pool findings whose counters stayed cold.
"""

from pathlib import Path

import pytest

from repro.analysis.linter import Finding
from repro.analysis.perfbench import (
    HOT_THRESHOLD,
    _bench_callback_timers,
    _bench_pool_index,
    _engine_report,
    crossref,
    run_profiled_deployment,
    work_counters,
)
from repro.metrics import benchfile
from repro.replication.config import NiliconConfig

ROOT = Path(__file__).resolve().parents[2]


def test_profiled_run_is_deterministic():
    runs = [
        run_profiled_deployment("net", run_ms=300, seed=1) for _ in range(2)
    ]
    assert runs[0].digest == runs[1].digest
    assert runs[0].counters == runs[1].counters
    assert runs[0].events == runs[1].events > 0


def test_profiled_digest_tracks_work_done():
    # Catalog workloads draw no randomness (seed feeds fault injection
    # only), so sensitivity is tested by run length: a longer run does
    # strictly more work and must change the digest.
    a = run_profiled_deployment("net", run_ms=300, seed=1)
    b = run_profiled_deployment("net", run_ms=600, seed=1)
    assert b.events > a.events
    assert a.digest != b.digest


def test_profiled_counters_cover_every_subsystem():
    run = run_profiled_deployment("net", run_ms=400, seed=1)
    c = run.counters
    assert c["engine.events"] == run.events
    # The replication pipeline ran: epochs traced, pages written/digested,
    # images stored, digests verified on the backup.
    assert c.get("trace.epoch", 0) > 0
    assert c.get("mm.pages_written", 0) > 0
    assert c.get("digest.pages_digested", 0) > 0
    assert c.get("pagestore.pages_stored", 0) > 0


def test_streamcluster_counters_match_the_checked_in_bench():
    """The engine gate's streamcluster rows are this run's work counters,
    so a change to the work it does must come with a regenerated
    BENCH_engine.json."""
    run = run_profiled_deployment("streamcluster", run_ms=1500, seed=1)
    report = benchfile.load(ROOT / "BENCH_engine.json")
    pinned = {
        name.removeprefix("streamcluster."): metric["value"]
        for name, metric in report["metrics"].items()
        if name.startswith("streamcluster.")
    }
    assert work_counters(run.counters) == pinned
    assert report["info"]["counter_digests"]["streamcluster"] == run.digest


def test_unoptimized_digest_knob_is_confirmed_hot():
    # The statecache PERF002 debt is paid (the real tree lints clean), so
    # the L2<->L3 contract is pinned with a synthetic finding at the same
    # site: under the knob, the profiler's digest counters must confirm a
    # statecache finding as hot.
    finding = Finding(
        rule_id="PERF002",
        path="src/repro/replication/statecache.py",
        line=1,
        col=0,
        message="synthetic",
        severity="warning",
    )
    config = NiliconConfig.nilicon().with_(perf_unoptimized_digest=True)
    run = run_profiled_deployment("lighttpd", run_ms=400, seed=1,
                                  config=config)
    entries = crossref([finding], run.counters)
    assert all(e["status"] == "confirmed-hot" for e in entries)
    assert all(e["observed"] >= HOT_THRESHOLD for e in entries)
    assert all("digest.pages_digested" in e["evidence"] for e in entries)


def test_knob_rehashes_more_pages_than_default():
    config = NiliconConfig.nilicon().with_(perf_unoptimized_digest=True)
    unopt = run_profiled_deployment("lighttpd", run_ms=400, seed=1,
                                    config=config)
    opt = run_profiled_deployment("lighttpd", run_ms=400, seed=1)
    assert (
        unopt.counters["digest.pages_digested"]
        > opt.counters["digest.pages_digested"]
    )


def test_crossref_downgrades_cold_findings():
    finding = Finding(
        rule_id="PERF006",
        path="src/repro/fleet/pool.py",
        line=1,
        col=0,
        message="synthetic",
        severity="warning",
    )
    entries = crossref([finding], {"pool.slot_ops": 0})
    assert entries[0]["status"] == "downgraded"
    assert entries[0]["observed"] == 0
    assert entries[0]["rule"] == "PERF006"

    hot = crossref([finding], {"pool.slot_ops": 40, "pool.load_queries": 30})
    assert hot[0]["status"] == "confirmed-hot"
    assert hot[0]["observed"] == 70


def _measured():
    """One engine bench's raw measurements, every check passing."""
    return {
        "seed": 1,
        "smoke": True,
        "run_ms": 1500,
        "workloads": {
            name: {
                "counters": {
                    "digest.pages_digested": 31,
                    "engine.events": 2505,
                    "engine.events.Call": 900,
                },
                "counter_digest": "68cdfcb0",
                "deterministic": True,
            }
            for name in ("net", "streamcluster")
        },
        "optimizations": {
            "engine_run_fast_path": {"speedup": 1.1},
            "callback_timers": {"speedup": 1.3},
            "page_digest_cache": {"work_reduction": 0.967},
            "pool_load_index": {"equivalent": True, "speedup": 4.9},
        },
    }


def test_engine_report_passes_its_own_gate():
    report = _engine_report(_measured())
    assert report["ok"], report["problems"]
    assert report["metrics"]["net.engine.events"] == {
        "value": 2505, "unit": "count",
    }
    # One metric per one-dot counter; the per-kind breakdown stays out.
    assert sorted(report["metrics"]) == [
        f"{name}.{site}"
        for name in ("net", "streamcluster")
        for site in ("digest.pages_digested", "engine.events")
    ]
    assert not any(
        name.endswith(("_per_sec", "wall_s")) for name in report["metrics"]
    )
    assert benchfile.check(report, report) == []


def test_check_bench_flags_fast_path_regression():
    # Gated relative to the legacy loop in the same process, so the check
    # needs no baseline and holds on hosts of any speed.
    measured = _measured()
    measured["optimizations"]["engine_run_fast_path"]["speedup"] = 0.5
    report = _engine_report(measured)
    assert not report["ok"]
    assert len(report["problems"]) == 1
    assert "engine_run_fast_path" in report["problems"][0]
    assert benchfile.check(report, _engine_report(_measured()))


def _nondeterministic_workload(measured):
    measured["workloads"]["streamcluster"]["deterministic"] = False


def _inequivalent_pool_index(measured):
    measured["optimizations"]["pool_load_index"]["equivalent"] = False


def _slow_callback_timers(measured):
    measured["optimizations"]["callback_timers"]["speedup"] = 0.7


@pytest.mark.parametrize(
    "breakage, culprit",
    [
        (_nondeterministic_workload, "streamcluster"),
        (_inequivalent_pool_index, "pool_load_index"),
        (_slow_callback_timers, "callback_timers"),
    ],
    ids=["workload", "pool-index", "callback-timers"],
)
def test_engine_gate_fails_on_a_baseline_free_check(breakage, culprit):
    """Counters equal to the baseline do not save a report whose same-seed
    repeats diverged or whose optimized path disagrees with its
    reference."""
    measured = _measured()
    breakage(measured)
    report = _engine_report(measured)
    assert not report["ok"]
    assert len(report["problems"]) == 1 and culprit in report["problems"][0]
    problems = benchfile.check(report, _engine_report(_measured()))
    assert len(problems) == 1 and culprit in problems[0]


def test_callback_timer_bench_fires_every_timer():
    result = _bench_callback_timers(n_timers=8_000)
    assert result["events"] == 8_000
    assert set(result) == {
        "events", "before_events_per_sec", "after_events_per_sec", "speedup",
    }


def test_pool_index_matches_scan_and_wins():
    result = _bench_pool_index(queries=20_000, seed=1)
    assert result["equivalent"] is True
    assert result["speedup"] > 1.0
