"""Perf analyzer Layer 3: deterministic profiling.

:func:`run_profiled_deployment` runs a catalog workload with a
:class:`~repro.sim.profiler.SimProfiler` installed and returns pure *work
counters* (events dispatched, pages written/digested/stored, bytes
hashed), never wall-clock readings, so two same-seed runs produce
identical counter digests.  :func:`crossref` then holds every static PERF
finding to account: a finding whose subsystem's counters actually ran hot
is **confirmed-hot**, one whose counters stayed cold is **downgraded**
(the name-based call graph over-approximates; the profiler is the
semantic backstop).  The :func:`work_counters` of a few profiled runs are
the paper gate's exact ``engine`` cells (:mod:`repro.experiments.engine`);
the simulator's own speed is measured by ``python3 -m bench``, and
``bench compare`` is the only route for a speed claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.analysis.linter import Finding
from repro.sim.profiler import counter_digest, install_profiler
from repro.sim.units import ms

__all__ = [
    "HOT_THRESHOLD",
    "ProfiledRun",
    "crossref",
    "run_profiled_deployment",
    "work_counters",
]


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
