"""Perf analyzer Layer 3: deterministic profiling + the benchmark gate.

Two jobs, deliberately separated:

* **Profiling is deterministic.**  :func:`run_profiled_deployment` runs a
  catalog workload with a :class:`~repro.sim.profiler.SimProfiler`
  installed and returns pure *work counters* (events dispatched, pages
  written/digested/stored, bytes hashed) — never wall-clock readings — so
  two same-seed runs produce identical counter digests.  :func:`crossref`
  then holds every static PERF finding to account: a finding whose
  subsystem's counters actually ran hot is **confirmed-hot**, one whose
  counters stayed cold is **downgraded** (the name-based call graph
  over-approximates; the profiler is the semantic backstop).
* **Benchmarking is wall-clock.**  :func:`run_perf_bench` measures
  events/sec and pages-digested/sec on catalog workloads, times the fleet
  campaign, and records the before/after of each landed optimization
  (engine run() fast path vs the legacy peek/step loop, the page-digest
  generation cache vs the ``perf_unoptimized_digest`` re-hash-everything
  knob, the host-pool occupancy index vs the ``_load_scan`` reference).
  The result is ``BENCH_engine.json`` in the one bench schema
  (:mod:`repro.metrics.benchfile`), whose gate fails on a >20% events/sec
  regression against it.  Checks that need no baseline (same-seed
  determinism, the fast path's speedup, the pool index's equivalence)
  fold into the report's ``ok``.

The wall clock is banned from ``src`` by DET001 (seed replay); the single
suppressed :func:`_wall` call below is this module's only exemption, and
its readings influence *report output only* — never simulated state, never
profiler counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.analysis.linter import Finding
from repro.metrics import benchfile
from repro.sim.profiler import counter_digest, install_profiler
from repro.sim.units import ms

__all__ = [
    "HOT_THRESHOLD",
    "PERF_BENCH_WORKLOADS",
    "ProfiledRun",
    "crossref",
    "run_perf_bench",
    "run_profiled_deployment",
]

#: Catalog workloads the full bench measures (smoke uses the first only).
PERF_BENCH_WORKLOADS = ("net", "redis", "streamcluster")


def _wall() -> float:
    """Host wall clock, for benchmark throughput numbers only."""
    return time.perf_counter()  # nlint: disable=DET001 -- bench-report timing only; never feeds simulated state or profiler counters


# --------------------------------------------------------------------------- #
# Deterministic profiled run                                                  #
# --------------------------------------------------------------------------- #


@dataclass
class ProfiledRun:
    """One profiled workload run: deterministic counters + a wall reading."""

    workload: str
    seed: int
    run_ms: int
    sim_us: int
    #: Total heap events dispatched (``engine.events``).
    events: int
    #: Wall seconds for the run loop — bench output only, NOT part of the
    #: counter set and NOT covered by :attr:`digest`.
    wall_s: float
    counters: dict[str, int]
    #: CRC32 over the sorted counter set; identical across same-seed runs.
    digest: str


def _build_deployment(workload_name: str, seed: int, config=None):
    """Fresh same-seed world + deployment, id counters rewound so pids and
    inode numbers (and with them image byte counts) replay exactly."""
    from repro.experiments.common import build_deployment
    from repro.net import World
    from repro.net.world import reset_id_counters
    from repro.workloads.catalog import make_workload

    reset_id_counters()
    world = World(seed=seed)
    workload = make_workload(workload_name)
    deployment = build_deployment(world, workload.spec(), "nilicon", config=config)
    workload.warmup(world, deployment.container)
    workload.attach(world, deployment.container)
    deployment.start()
    return world, workload, deployment


def _launch_clients(world, workload, run_ms: int) -> None:
    from repro.workloads.base import ClientStats, ServerWorkload

    if not isinstance(workload, ServerWorkload):
        return
    stats = ClientStats()

    def launch():
        yield world.engine.timeout(ms(300))
        workload.start_clients(world, stats, run_until_us=ms(run_ms))

    world.engine.process(launch())


def _harvest_deployment(profiler, deployment) -> None:
    """Fold the always-on object counters into the profiler's set."""
    mm_written = mm_snapshotted = mm_faults = 0
    for process in deployment.container.processes:
        mm_written += process.mm.pages_written
        mm_snapshotted += process.mm.pages_snapshotted
        mm_faults += process.mm.total_faults
    cache = deployment.primary_agent.digest_cache
    backup = deployment.backup_agent
    profiler.harvest(
        {
            "mm.pages_written": mm_written,
            "mm.pages_snapshotted": mm_snapshotted,
            "mm.faults": mm_faults,
            "digest.pages_digested": cache.pages_digested,
            "digest.bytes_hashed": cache.bytes_hashed,
            "digest.cache_hits": cache.cache_hits,
            "digest.verified_transfers": backup.digests_verified,
            "digest.mismatches": backup.digest_mismatches,
            "pagestore.pages_stored": backup.page_store.pages_stored,
        }
    )


def run_profiled_deployment(
    workload_name: str = "net",
    run_ms: int = 1000,
    seed: int = 1,
    config=None,
) -> ProfiledRun:
    """Run one catalog workload under the profiler; returns the counters."""
    world, workload, deployment = _build_deployment(workload_name, seed, config)
    profiler = install_profiler(world.engine)
    _launch_clients(world, workload, run_ms)
    start = _wall()
    world.run(until=ms(run_ms))
    wall_s = _wall() - start
    deployment.stop()
    _harvest_deployment(profiler, deployment)
    counters = profiler.snapshot()
    return ProfiledRun(
        workload=workload_name,
        seed=seed,
        run_ms=run_ms,
        sim_us=world.now,
        events=counters.get("engine.events", 0),
        wall_s=wall_s,
        counters=counters,
        digest=counter_digest(counters),
    )


# --------------------------------------------------------------------------- #
# L2 <-> L3 cross-reference                                                   #
# --------------------------------------------------------------------------- #

#: Minimum observed work for a finding's subsystem to count as "ran hot".
HOT_THRESHOLD = 50

#: Finding-path suffix -> counter sites whose sum is the hotness evidence.
#: First match wins; the engine counter is the fallback for sim/ paths.
_EVIDENCE_SITES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("replication/statecache.py", ("digest.pages_digested",)),
    ("kernel/mm.py", ("mm.pages_written", "mm.pages_snapshotted")),
    ("criu/pagestore.py", ("pagestore.pages_stored",)),
    ("fleet/pool.py", ("pool.slot_ops", "pool.load_queries")),
    ("fleet/placement.py", ("pool.slot_ops", "pool.load_queries")),
    ("replication/primary.py", ("trace.epoch",)),
    ("replication/backup.py", ("trace.epoch",)),
    ("sim/", ("engine.events",)),
)


def crossref(
    findings: Sequence[Finding],
    counters: Mapping[str, int],
    threshold: int = HOT_THRESHOLD,
) -> list[dict[str, Any]]:
    """Hold each static finding to the profiled evidence.

    Returns one dict per finding: the finding's own fields plus
    ``status`` (``confirmed-hot`` / ``downgraded``), the ``evidence``
    expression and the ``observed`` work count.
    """
    out: list[dict[str, Any]] = []
    for finding in findings:
        sites = next(
            (s for suffix, s in _EVIDENCE_SITES if suffix in finding.path),
            ("engine.events",),
        )
        observed = sum(counters.get(site, 0) for site in sites)
        entry = dict(finding.as_dict())
        entry["status"] = (
            "confirmed-hot" if observed >= threshold else "downgraded"
        )
        entry["evidence"] = " + ".join(sites) + f" = {observed}"
        entry["observed"] = observed
        out.append(entry)
    return out


# --------------------------------------------------------------------------- #
# Wall-clock benches                                                          #
# --------------------------------------------------------------------------- #


def _timed_run(workload_name: str, run_ms: int, seed: int, config=None):
    """One unprofiled timed run; returns ``(deployment, events, wall_s)``."""
    world, workload, deployment = _build_deployment(workload_name, seed, config)
    _launch_clients(world, workload, run_ms)
    engine = world.engine
    start = _wall()
    engine.run(until=ms(run_ms))
    wall_s = _wall() - start
    deployment.stop()
    return deployment, engine.n_dispatched, wall_s


def _rate(count: int, wall_s: float) -> int:
    return int(count / wall_s) if wall_s > 0 else 0


def _bench_engine_loop(n_events: int = 240_000) -> dict[str, Any]:
    """Before/after of the Engine.run fast path (satellite optimization).

    A pure DES micro-bench — 8 interleaved timer processes dispatching
    *n_events* total — so the measurement is dominated by the dispatch
    loop itself, not by workload page hashing.  Catalog workloads dispatch
    a few thousand events per run, far too few to time the loop above the
    noise floor; here each side is best-of-3 over hundreds of thousands.
    """
    from repro.sim.engine import Engine

    per_process = n_events // 8

    def build() -> Engine:
        engine = Engine()

        def ticker():
            for _ in range(per_process):
                yield engine.timeout(7)

        for _ in range(8):
            engine.process(ticker())
        return engine

    def measure(legacy: bool) -> tuple[int, float]:
        best = None
        events = 0
        for _ in range(3):
            engine = build()
            start = _wall()
            if legacy:
                while engine.peek() is not None:
                    engine.step()
            else:
                engine.run()
            wall_s = _wall() - start
            events = engine.n_dispatched
            best = wall_s if best is None else min(best, wall_s)
        return events, best

    ev_before, wall_before = measure(legacy=True)
    ev_after, wall_after = measure(legacy=False)
    before = _rate(ev_before, wall_before)
    after = _rate(ev_after, wall_after)
    return {
        "events": ev_after,
        "before_events_per_sec": before,
        "after_events_per_sec": after,
        "speedup": round(after / before, 3) if before else None,
    }


def _bench_digest_cache(run_ms: int, seed: int) -> dict[str, Any]:
    """Before/after of the page-digest generation cache: the
    ``perf_unoptimized_digest`` knob re-hashes the whole resident set every
    epoch; the cache hashes dirty pages only."""
    from repro.replication.config import NiliconConfig

    # streamcluster has the catalog's largest resident set (55k pages) with
    # a small per-epoch dirty set — the shape the generation cache exists
    # for, and the shape where re-hash-everything hurts most.
    workload = "streamcluster"
    unopt = NiliconConfig.nilicon().with_(perf_unoptimized_digest=True)
    before_dep, _, wall_before = _timed_run(workload, run_ms, seed, config=unopt)
    after_dep, _, wall_after = _timed_run(workload, run_ms, seed)
    before_cache = before_dep.primary_agent.digest_cache
    after_cache = after_dep.primary_agent.digest_cache
    return {
        "workload": workload,
        "before": {
            "pages_digested": before_cache.pages_digested,
            "bytes_hashed": before_cache.bytes_hashed,
            "wall_s": round(wall_before, 4),
            "pages_digested_per_sec": _rate(
                before_cache.pages_digested, wall_before
            ),
        },
        "after": {
            "pages_digested": after_cache.pages_digested,
            "bytes_hashed": after_cache.bytes_hashed,
            "cache_hits": after_cache.cache_hits,
            "wall_s": round(wall_after, 4),
            "pages_digested_per_sec": _rate(
                after_cache.pages_digested, wall_after
            ),
        },
        # Deterministic work reduction: pages the cache did NOT re-hash.
        "work_reduction": round(
            1 - after_cache.pages_digested / before_cache.pages_digested, 3
        )
        if before_cache.pages_digested
        else None,
    }


def _bench_pool_index(queries: int = 200_000, seed: int = 1) -> dict[str, Any]:
    """Micro-bench of HostPool.load (maintained index) against the
    ``_load_scan`` reference on a campaign-shaped pool (12 members across
    6 hosts), proving equivalence along the way."""
    from repro.fleet.pool import HostPool
    from repro.net import World
    from repro.net.world import reset_id_counters

    reset_id_counters()
    world = World(seed=seed)
    pool = HostPool(world, n_hosts=6, slots_per_host=10)
    names = sorted(pool.hosts)
    for i in range(12):
        pool.allocate(f"m{i:02d}", "primary", pool.host(names[i % 6]))
        pool.allocate(f"m{i:02d}", "backup", pool.host(names[(i + 1) % 6]))
    mismatches = sum(
        1 for name in names if pool.load(name) != pool._load_scan(name)
    )
    start = _wall()
    for i in range(queries):
        pool._load_scan(names[i % 6])
    scan_wall = _wall() - start
    start = _wall()
    for i in range(queries):
        pool.load(names[i % 6])
    index_wall = _wall() - start
    return {
        "queries": queries,
        "allocations": len(pool.allocations),
        "equivalent": mismatches == 0,
        "scan_wall_s": round(scan_wall, 4),
        "index_wall_s": round(index_wall, 4),
        "speedup": round(scan_wall / index_wall, 3) if index_wall else None,
    }


def _bench_fleet(smoke: bool, seed: int) -> dict[str, Any]:
    """Time the 12-member fleet campaign (which replays itself twice and
    checks its own trace-digest determinism)."""
    from repro.experiments.fleet import run_fleet_campaign

    start = _wall()
    report = run_fleet_campaign(seed=seed, smoke=smoke)
    wall_s = _wall() - start
    return {
        "fleet": report["fleet"],
        "ok": report["ok"],
        "deterministic": report["deterministic"],
        "digest": report["digest"],
        "trace_events": report["trace_events"],
        "wall_s": round(wall_s, 2),
        "trace_events_per_sec": _rate(report["trace_events"], wall_s),
    }


#: Per-workload metrics: (field, unit, gate).  Only events/sec is gated.
_WORKLOAD_METRICS = (
    ("events", "events", {}),
    ("sim_us", "us", {}),
    ("wall_s", "s", {}),
    ("events_per_sec", "events/s", {"better": "higher"}),
    ("pages_digested", "pages", {}),
    ("pages_digested_per_sec", "pages/s", {}),
)

_FLEET_CAMPAIGN_METRICS = (
    ("trace_events", "events"),
    ("wall_s", "s"),
    ("trace_events_per_sec", "events/s"),
)


def run_perf_bench(smoke: bool = False, seed: int = 1) -> dict[str, Any]:
    """Produce the BENCH_engine.json report.

    Smoke keeps the simulated run length (so workload rates stay comparable
    to the checked-in full bench) but runs one workload only — streamcluster,
    whose ~0.5 s wall time sits well above the timing noise floor — plus the
    reduced fleet campaign and smaller micro-bench iteration counts.
    """
    run_ms = 1500
    workloads = ("streamcluster",) if smoke else PERF_BENCH_WORKLOADS
    measured: dict[str, Any] = {}
    for name in workloads:
        # Best-of-3: the first run absorbs process cold-start (imports,
        # allocator warmup), and min() discards scheduler noise.  The
        # repeats double as a determinism check: same seed, so all three
        # counter digests must be identical.
        runs = [
            run_profiled_deployment(name, run_ms=run_ms, seed=seed)
            for _ in range(3)
        ]
        run = runs[0]
        wall_s = min(r.wall_s for r in runs)
        measured[name] = {
            "events": run.events,
            "sim_us": run.sim_us,
            "wall_s": round(wall_s, 4),
            "events_per_sec": _rate(run.events, wall_s),
            "pages_digested": run.counters.get("digest.pages_digested", 0),
            "pages_digested_per_sec": _rate(
                run.counters.get("digest.pages_digested", 0), wall_s
            ),
            "counter_digest": run.digest,
            "deterministic": len({r.digest for r in runs}) == 1,
        }
    return _engine_report({
        "smoke": smoke,
        "seed": seed,
        "run_ms": run_ms,
        "workloads": measured,
        "fleet_campaign": _bench_fleet(smoke, seed),
        "optimizations": {
            "engine_run_fast_path": _bench_engine_loop(
                n_events=80_000 if smoke else 240_000
            ),
            "page_digest_cache": _bench_digest_cache(run_ms, seed),
            "pool_load_index": _bench_pool_index(
                queries=20_000 if smoke else 200_000, seed=seed
            ),
        },
    })


def _engine_report(measured: Mapping[str, Any]) -> dict[str, Any]:
    """Fold one bench's measurements into a bench-schema report.

    Every check here needs no baseline: same-seed repeats and the fleet
    campaign replay must be deterministic, the pool index must agree with
    its scan reference, and the run() fast path must stay within the
    tolerance of the legacy step loop measured in the same process — a
    machine-independent check that survives hosts slower or faster than
    the one that recorded the baseline."""
    metrics: dict[str, Any] = {}
    problems: list[str] = []
    for name, entry in sorted(measured["workloads"].items()):
        metrics.update({
            f"{name}.{field}": {"value": entry[field], "unit": unit, **gate}
            for field, unit, gate in _WORKLOAD_METRICS
        })
        if not entry["deterministic"]:
            problems.append(
                f"{name}: same-seed repeats produced different counter digests"
            )
    fleet = measured["fleet_campaign"]
    metrics.update({
        f"fleet_campaign.{field}": {"value": fleet[field], "unit": unit}
        for field, unit in _FLEET_CAMPAIGN_METRICS
    })
    if not fleet["deterministic"]:
        problems.append("fleet_campaign: replay produced a different digest")
    if not fleet["ok"]:
        problems.append("fleet_campaign: the campaign failed its oracles")
    optimizations = measured["optimizations"]
    speedup = optimizations["engine_run_fast_path"]["speedup"]
    if speedup is not None and speedup < 1 - benchfile.TOLERANCE:
        problems.append(
            f"engine_run_fast_path: run() measured {speedup}x the legacy "
            f"step loop — the fast path regressed below the "
            f"{1 - benchfile.TOLERANCE:.2f}x floor"
        )
    if not optimizations["pool_load_index"]["equivalent"]:
        problems.append("pool_load_index: HostPool.load disagrees with _load_scan")
    return {
        "schema": benchfile.SCHEMA,
        "bench": "engine",
        "seed": measured["seed"],
        "smoke": measured["smoke"],
        "ok": not problems,
        "problems": problems,
        "metrics": metrics,
        "info": {
            "run_ms": measured["run_ms"],
            "counter_digests": {
                name: entry["counter_digest"]
                for name, entry in sorted(measured["workloads"].items())
            },
            "fleet_campaign": {
                "fleet": fleet["fleet"], "digest": fleet["digest"],
            },
            "optimizations": optimizations,
        },
    }
