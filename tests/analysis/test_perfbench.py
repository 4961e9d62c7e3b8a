"""Tests for the deterministic profiled runs whose work counters the
paper gate pins as its ``engine`` cells (:mod:`repro.experiments.engine`).

The load-bearing property: two same-seed profiled runs must produce
*identical* counter digests.
"""

from pathlib import Path

from repro.experiments.engine import run_profiled_deployment, work_counters
from repro.metrics import benchfile

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
    regenerated BENCH_paper.json.  The counter digest cell also covers
    the per-kind breakdowns (``engine.events.Call``) the other cells omit."""
    run = run_profiled_deployment("streamcluster", run_ms=1500, seed=1)
    report = benchfile.load(ROOT / "BENCH_paper.json")
    pinned = {
        name.removeprefix("engine.streamcluster."): metric
        for name, metric in report["metrics"].items()
        if name.startswith("engine.streamcluster.")
    }
    assert pinned.pop("counter_digest") == {"value": run.digest, "unit": "digest"}
    assert pinned == {
        site.replace(".", "_"): {"value": n, "unit": "count"}
        for site, n in work_counters(run.counters).items()
    }
