"""Engine work counters: the exact work behind §VI's state cache.

Each row runs one catalog workload for :data:`RUN_MS` simulated ms under
the deterministic profiler
(:func:`repro.analysis.perfbench.run_profiled_deployment`) and keeps its
per-subsystem work counters: events dispatched, heap pushes, pages
written, digested and stored, epochs traced.  A column is the counter's
name with ``_`` for its dot (``digest.pages_digested`` ->
``digest_pages_digested``).  The :data:`UNOPTIMIZED` row runs streamcluster
under ``perf_unoptimized_digest``, which re-hashes the whole resident set
every epoch: against it the generation cache's saving is a page count,
not a timing, so the paper gate pins it on any host.  The counter digest
covers the per-kind breakdowns (``engine.events.Call``) the columns omit;
the table prints it.
"""

from __future__ import annotations

from repro.analysis.perfbench import run_profiled_deployment, work_counters
from repro.replication.config import NiliconConfig

__all__ = ["RUN_MS", "SMOKE_WORKLOADS", "UNOPTIMIZED", "WORKLOADS", "format_rows",
           "run_rows"]

WORKLOADS = ("net", "redis", "streamcluster")
#: streamcluster has the catalog's largest resident set (55k pages) with a
#: small per-epoch dirty set: the shape the generation cache exists for.
SMOKE_WORKLOADS = ("streamcluster",)
#: The knob row's name: streamcluster without the page-digest cache.
UNOPTIMIZED = "streamcluster/unoptimized"
RUN_MS = 1500


def _row(name: str, workload: str, seed: int, config=None) -> dict:
    run = run_profiled_deployment(workload, run_ms=RUN_MS, seed=seed, config=config)
    counters = work_counters(run.counters)
    return {"workload": name, "counter_digest": run.digest,
            **{site.replace(".", "_"): counters[site] for site in sorted(counters)}}


def run_rows(smoke: bool = False, seed: int = 1) -> list[dict]:
    """One row per workload (streamcluster alone with *smoke*), then the
    knob row."""
    unoptimized = NiliconConfig.nilicon().with_(perf_unoptimized_digest=True)
    return [*(_row(name, name, seed) for name in (SMOKE_WORKLOADS if smoke else WORKLOADS)),
            _row(UNOPTIMIZED, "streamcluster", seed, config=unoptimized)]


def format_rows(rows: list[dict]) -> str:
    """One line per counter, one column per row."""
    widths = [max(len(row["workload"]), 10) + 2 for row in rows]
    return "\n".join(
        f"  {column:<26}" + "".join(f"{row[column]:>{w}}" for row, w in zip(rows, widths))
        for column in (rows[0] if rows else ())
    )
