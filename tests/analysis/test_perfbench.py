"""Tests for perf Layer 3: deterministic profiling, the L2<->L3
cross-reference, and the work counters the paper gate pins as its
``engine`` cells.

The load-bearing property is ISSUE acceptance: two same-seed profiled
runs must produce *identical* counter digests.  The cross-reference tests
pin the knob regression end to end — ``perf_unoptimized_digest`` re-hashes
every resident page, so on a memory-heavy workload the statecache PERF002
finding is confirmed-hot; a short run of the page-light ``net`` workload
downgrades pool findings whose counters stayed cold.
"""

from pathlib import Path

from repro.analysis.linter import Finding
from repro.analysis.perfbench import (
    HOT_THRESHOLD,
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
    """The paper gate's ``engine.streamcluster.*`` cells are this run's
    work counters, so a change to the work it does must come with a
    regenerated BENCH_paper.json.  The counter digest also covers the
    per-kind breakdowns (``engine.events.Call``) the cells omit."""
    run = run_profiled_deployment("streamcluster", run_ms=1500, seed=1)
    report = benchfile.load(ROOT / "BENCH_paper.json")
    pinned = {
        name.removeprefix("engine.streamcluster."): metric
        for name, metric in report["metrics"].items()
        if name.startswith("engine.streamcluster.")
    }
    assert pinned == {
        site.replace(".", "_"): {"value": n, "unit": "count"}
        for site, n in work_counters(run.counters).items()
    }
    assert run.digest == "0a1510f9"


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
