"""Perf analyzer Layer 3: deterministic profiling + the work gate.

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
* **The bench gates work, not time.**  :func:`run_perf_bench` runs each
  catalog workload twice under the profiler (the two counter digests must
  agree) and turns every :func:`work_counters` entry into a metric
  ``<workload>.<counter>`` of ``BENCH_engine.json``, in the one
  bench schema (:mod:`repro.metrics.benchfile`): any change to the events
  dispatched or the pages written, digested and stored fails the gate,
  whatever the host's speed.  It also records the before/after of each
  landed optimization (engine run() fast path vs the legacy peek/step
  loop, call_later vs a timeout() carrying a closure, the page-digest
  generation cache vs the ``perf_unoptimized_digest`` re-hash-everything
  knob, the host-pool occupancy index vs the ``_load_scan`` reference).
  Checks that need no baseline (same-seed determinism, the two fast
  paths' in-process speedups, the pool index's equivalence) fold into the
  report's ``ok``.  The simulator's own speed is measured by
  ``python3 -m bench``, and ``bench compare`` is the only route for a
  speed claim.

The wall clock is banned from ``src`` by DET001 (seed replay); the single
suppressed :func:`_wall` call below is this module's only exemption.  It
times the in-process micro-benches only, and never feeds simulated state,
profiler counters or a gated metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

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
    "work_counters",
]

#: Catalog workloads the full bench measures (smoke uses the first only).
PERF_BENCH_WORKLOADS = ("net", "redis", "streamcluster")

#: The slowest the run() fast path and call_later may measure against
#: their in-process references before the bench fails its own check.
FAST_PATH_FLOOR = 0.80


def _wall() -> float:
    """Host wall clock, for the in-process micro-benches only."""
    return time.perf_counter()  # nlint: disable=DET001 -- bench-report timing only; never feeds simulated state or profiler counters


# --------------------------------------------------------------------------- #
# Deterministic profiled run                                                  #
# --------------------------------------------------------------------------- #


@dataclass
class ProfiledRun:
    """One profiled workload run: its deterministic counters."""

    workload: str
    seed: int
    run_ms: int
    sim_us: int
    #: Total heap events dispatched (``engine.events``).
    events: int
    counters: dict[str, int]
    #: CRC32 over the sorted counter set; identical across same-seed runs.
    digest: str


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
    from repro.experiments.common import open_cell
    from repro.workloads.base import ServerWorkload

    cell = open_cell(workload_name, "nilicon", seed, config=config)
    cell.start()
    profiler = install_profiler(cell.world.engine)
    if isinstance(cell.workload, ServerWorkload):
        cell.clients_at(ms(300), run_until_us=ms(run_ms))
    cell.world.run(until=ms(run_ms))
    cell.deployment.stop()
    _harvest_deployment(profiler, cell.deployment)
    counters = profiler.snapshot()
    return ProfiledRun(
        workload=workload_name,
        seed=seed,
        run_ms=run_ms,
        sim_us=cell.world.now,
        events=counters.get("engine.events", 0),
        counters=counters,
        digest=counter_digest(counters),
    )


def work_counters(counters: Mapping[str, int]) -> dict[str, int]:
    """The per-subsystem totals: the counters with exactly one dot in
    their name (``engine.events``, ``digest.pages_digested``), not the
    per-kind breakdowns such as ``engine.events.Call``."""
    return {site: n for site, n in counters.items() if site.count(".") == 1}


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
# The engine bench                                                            #
# --------------------------------------------------------------------------- #


def _before_after(
    prepare: Callable[[bool], tuple[Any, Callable[[], Any]]],
) -> dict[str, Any]:
    """Events/sec of one engine optimization's before and after form.

    ``prepare(legacy)`` builds a fresh engine and returns it with the
    zero-argument callable to time; the engine's dispatch count is the
    event total.  Each of 3 repeats times the legacy side and then the
    fast side, so a burst of host noise lands on both; each side keeps its
    best time.
    """
    events: dict[bool, int] = {}
    best: dict[bool, float] = {}
    for _ in range(3):
        for legacy in (True, False):
            engine, work = prepare(legacy)
            start = _wall()
            work()
            wall_s = _wall() - start
            events[legacy] = engine.n_dispatched
            best[legacy] = min(wall_s, best.get(legacy, wall_s))
    before = int(events[True] / best[True])
    after = int(events[False] / best[False])
    return {
        "events": events[False],
        "before_events_per_sec": before,
        "after_events_per_sec": after,
        "speedup": round(after / before, 3),
    }


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

    def prepare(legacy: bool):
        engine = Engine()

        def ticker():
            for _ in range(per_process):
                yield engine.timeout(7)

        for _ in range(8):
            engine.process(ticker())

        def step_loop() -> None:
            while engine.peek() is not None:
                engine.step()

        return engine, step_loop if legacy else engine.run

    return _before_after(prepare)


def _bench_callback_timers(n_timers: int = 240_000) -> dict[str, Any]:
    """Before/after of Engine.call_later.

    8 self-re-arming timer chains fire *n_timers* one-shot timers in total,
    the shape of a bridge hop or a TCP retransmit arm: before, each timer
    is a ``timeout()`` carrying a closure; after, a ``call_later``.  Both
    sides dispatch the same events in the same order.
    """
    from repro.sim.engine import Engine

    per_chain = n_timers // 8

    def prepare(legacy: bool):
        engine = Engine()
        left = [per_chain] * 8

        def fire(chain: int) -> None:
            left[chain] -= 1
            if left[chain]:
                arm(chain)

        if legacy:
            def arm(chain: int) -> None:
                engine.timeout(7).callbacks.append(lambda _ev: fire(chain))
        else:
            def arm(chain: int) -> None:
                engine.call_later(7, fire, chain)

        for chain in range(8):
            arm(chain)
        return engine, engine.run

    return _before_after(prepare)


def _bench_digest_cache(after: ProfiledRun) -> dict[str, Any]:
    """Work of the page-digest generation cache against the
    ``perf_unoptimized_digest`` knob, which re-hashes the whole resident
    set every epoch; the cache hashes dirty pages only.  *after* is the
    bench's own run of the workload, so only the knob-on run is extra."""
    from repro.replication.config import NiliconConfig

    unopt = NiliconConfig.nilicon().with_(perf_unoptimized_digest=True)
    before = run_profiled_deployment(
        after.workload, run_ms=after.run_ms, seed=after.seed, config=unopt
    ).counters
    pages_before = before["digest.pages_digested"]
    pages_after = after.counters["digest.pages_digested"]
    return {
        "workload": after.workload,
        "before": {
            "pages_digested": pages_before,
            "bytes_hashed": before["digest.bytes_hashed"],
        },
        "after": {
            "pages_digested": pages_after,
            "bytes_hashed": after.counters["digest.bytes_hashed"],
            "cache_hits": after.counters["digest.cache_hits"],
        },
        # Deterministic work reduction: pages the cache did NOT re-hash.
        "work_reduction": round(1 - pages_after / pages_before, 3),
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


def run_perf_bench(smoke: bool = False, seed: int = 1) -> dict[str, Any]:
    """Produce the BENCH_engine.json report.

    Smoke keeps the simulated run length, so its counters equal the full
    bench's, but runs one workload only (streamcluster) and smaller
    micro-bench iteration counts.
    """
    run_ms = 1500
    workloads = ("streamcluster",) if smoke else PERF_BENCH_WORKLOADS
    runs = {
        name: [
            run_profiled_deployment(name, run_ms=run_ms, seed=seed)
            for _ in range(2)
        ]
        for name in workloads
    }
    return _engine_report({
        "smoke": smoke,
        "seed": seed,
        "run_ms": run_ms,
        "workloads": {
            name: {
                "counters": first.counters,
                "counter_digest": first.digest,
                "deterministic": first.digest == second.digest,
            }
            for name, (first, second) in runs.items()
        },
        "optimizations": {
            "engine_run_fast_path": _bench_engine_loop(
                n_events=80_000 if smoke else 240_000
            ),
            "callback_timers": _bench_callback_timers(
                n_timers=80_000 if smoke else 240_000
            ),
            # streamcluster has the catalog's largest resident set (55k
            # pages) with a small per-epoch dirty set — the shape the
            # generation cache exists for.
            "page_digest_cache": _bench_digest_cache(runs["streamcluster"][0]),
            "pool_load_index": _bench_pool_index(
                queries=20_000 if smoke else 200_000, seed=seed
            ),
        },
    })


def _engine_report(measured: Mapping[str, Any]) -> dict[str, Any]:
    """Fold one bench's measurements into a bench-schema report.

    Each workload's work counters become exact metrics.  Every check here
    needs no baseline: same-seed repeats must be deterministic, the pool
    index must agree with its scan reference, and the run() fast path and
    call_later must stay above :data:`FAST_PATH_FLOOR` times their
    references (the legacy step loop, a timeout() carrying a closure)
    measured in the same process — a machine-independent check that survives hosts slower or
    faster than the one that recorded the baseline."""
    metrics: dict[str, Any] = {}
    problems: list[str] = []
    for name, entry in sorted(measured["workloads"].items()):
        metrics.update({
            f"{name}.{site}": {"value": n, "unit": "count"}
            for site, n in work_counters(entry["counters"]).items()
        })
        if not entry["deterministic"]:
            problems.append(
                f"{name}: same-seed repeats produced different counter digests"
            )
    optimizations = measured["optimizations"]
    for name, fast, reference in (
        ("engine_run_fast_path", "run()", "the legacy step loop"),
        ("callback_timers", "call_later", "timeout() + closure"),
    ):
        speedup = optimizations[name]["speedup"]
        if speedup < FAST_PATH_FLOOR:
            problems.append(
                f"{name}: {fast} measured {speedup}x {reference} — the "
                f"fast path regressed below the {FAST_PATH_FLOOR:.2f}x floor"
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
            "optimizations": optimizations,
        },
    }
