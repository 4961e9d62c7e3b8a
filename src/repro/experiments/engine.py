"""Engine work counters: the exact work behind §VI's state cache.

Each row runs one catalog workload for :data:`RUN_MS` simulated ms under
the deterministic profiler (:mod:`repro.sim.profiler`,
:func:`run_profiled_deployment`) and keeps its per-subsystem work
counters: events dispatched, heap pushes, pages written, digested and
stored, epochs traced.  Counters are never wall-clock readings, so two
same-seed runs produce identical counter digests; the simulator's own
speed is measured by ``python3 -m bench``.  A column is the counter's
name with ``_`` for its dot (``digest.pages_digested`` ->
``digest_pages_digested``).  The counter digest covers the per-kind
breakdowns (``engine.events.Call``) the columns omit; the table prints it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.experiments.common import open_cell
from repro.sim.profiler import counter_digest, install_profiler
from repro.sim.units import ms
from repro.workloads.base import ServerWorkload

__all__ = ["RUN_MS", "SMOKE_WORKLOADS", "WORKLOADS", "ProfiledRun",
           "format_rows", "run_profiled_deployment", "run_rows", "work_counters"]

WORKLOADS = ("net", "redis", "streamcluster")
#: streamcluster has the catalog's largest resident set (55k pages) with a
#: small per-epoch dirty set: the shape the generation cache exists for.
SMOKE_WORKLOADS = ("streamcluster",)
RUN_MS = 1500


@dataclass
class ProfiledRun:
    """One profiled workload run: its deterministic counters."""

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


def run_profiled_deployment(workload_name: str, run_ms: int, seed: int = 1) -> ProfiledRun:
    """Run one catalog workload under the profiler; returns the counters."""
    cell = open_cell(workload_name, "nilicon", seed)
    cell.start()
    profiler = install_profiler(cell.world.engine)
    if isinstance(cell.workload, ServerWorkload):
        cell.clients_at(ms(300), run_until_us=ms(run_ms))
    cell.world.run(until=ms(run_ms))
    cell.deployment.stop()
    _harvest_deployment(profiler, cell.deployment)
    counters = profiler.snapshot()
    return ProfiledRun(events=counters.get("engine.events", 0),
                       counters=counters, digest=counter_digest(counters))


def work_counters(counters: Mapping[str, int]) -> dict[str, int]:
    """The per-subsystem totals: the counters with exactly one dot in
    their name (``engine.events``, ``digest.pages_digested``), not the
    per-kind breakdowns such as ``engine.events.Call``."""
    return {site: n for site, n in counters.items() if site.count(".") == 1}


def _row(workload: str, seed: int) -> dict:
    run = run_profiled_deployment(workload, run_ms=RUN_MS, seed=seed)
    counters = work_counters(run.counters)
    return {"workload": workload, "counter_digest": run.digest,
            **{site.replace(".", "_"): counters[site] for site in sorted(counters)}}


def run_rows(smoke: bool = False, seed: int = 1) -> list[dict]:
    """One row per workload (streamcluster alone with *smoke*)."""
    return [_row(name, seed) for name in (SMOKE_WORKLOADS if smoke else WORKLOADS)]


def format_rows(rows: list[dict]) -> str:
    """One line per counter, one column per row."""
    widths = [max(len(row["workload"]), 10) + 2 for row in rows]
    return "\n".join(
        f"  {column:<26}" + "".join(f"{row[column]:>{w}}" for row, w in zip(rows, widths))
        for column in (rows[0] if rows else ())
    )
