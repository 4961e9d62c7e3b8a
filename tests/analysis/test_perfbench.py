"""Tests for perf Layer 3: deterministic profiling, the L2<->L3
cross-reference, and the checks the engine bench folds into its ``ok``.

The load-bearing property is ISSUE acceptance: two same-seed profiled
runs must produce *identical* counter digests.  The cross-reference tests
pin the knob regression end to end — ``perf_unoptimized_digest`` re-hashes
every resident page, so on a memory-heavy workload the statecache PERF002
finding is confirmed-hot; a short run of the page-light ``net`` workload
downgrades pool findings whose counters stayed cold.
"""

import pytest

from repro.analysis.linter import Finding
from repro.analysis.perfbench import (
    HOT_THRESHOLD,
    _bench_pool_index,
    _engine_report,
    crossref,
    run_profiled_deployment,
)
from repro.metrics import benchfile
from repro.replication.config import NiliconConfig


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
                "events": 2505, "sim_us": 1_500_000, "wall_s": 0.04,
                "events_per_sec": 40_000, "pages_digested": 31,
                "pages_digested_per_sec": 800, "counter_digest": "68cdfcb0",
                "deterministic": True,
            }
            for name in ("net", "streamcluster")
        },
        "fleet_campaign": {
            "fleet": {"containers": 12, "hosts": 6, "slots_per_host": 10},
            "ok": True, "deterministic": True, "digest": "cc43ab4c",
            "trace_events": 16239, "wall_s": 1.6, "trace_events_per_sec": 10140,
        },
        "optimizations": {
            "engine_run_fast_path": {"speedup": 1.1},
            "page_digest_cache": {"work_reduction": 0.967},
            "pool_load_index": {"equivalent": True, "speedup": 4.9},
        },
    }


def test_engine_report_passes_its_own_gate():
    report = _engine_report(_measured())
    assert report["ok"], report["problems"]
    assert report["metrics"]["net.events_per_sec"] == {
        "value": 40_000, "unit": "events/s", "better": "higher",
    }
    assert "better" not in report["metrics"]["net.wall_s"]
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


def _nondeterministic_campaign(measured):
    measured["fleet_campaign"]["deterministic"] = False


def _inequivalent_pool_index(measured):
    measured["optimizations"]["pool_load_index"]["equivalent"] = False


@pytest.mark.parametrize(
    "breakage, culprit",
    [
        (_nondeterministic_workload, "streamcluster"),
        (_nondeterministic_campaign, "fleet_campaign"),
        (_inequivalent_pool_index, "pool_load_index"),
    ],
    ids=["workload", "fleet-campaign", "pool-index"],
)
def test_engine_gate_fails_on_a_baseline_free_check(breakage, culprit):
    """Throughput inside its band does not save a report whose same-seed
    repeats diverged or whose optimized path disagrees with its
    reference."""
    measured = _measured()
    breakage(measured)
    report = _engine_report(measured)
    assert not report["ok"]
    assert len(report["problems"]) == 1 and culprit in report["problems"][0]
    problems = benchfile.check(report, _engine_report(_measured()))
    assert len(problems) == 1 and culprit in problems[0]


def test_pool_index_matches_scan_and_wins():
    result = _bench_pool_index(queries=20_000, seed=1)
    assert result["equivalent"] is True
    assert result["speedup"] > 1.0
