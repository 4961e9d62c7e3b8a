"""Table I: cumulative impact of NiLiCon's performance optimizations.

Measured on streamcluster (paper §V, Table I):

==============================================  =========
configuration                                   overhead
==============================================  =========
Basic implementation                            1940%
+ Optimize CRIU                                 619%
+ Cache infrequently-modified state             84%
+ Optimize blocking network input               65%
+ Obtain VMAs from netlink                      53%
+ Add memory staging buffer                     37%
+ Transfer dirty pages via shared memory        31%
==============================================  =========

Shape claims: overhead decreases monotonically as optimizations stack; the
two cliffs are "optimize CRIU" (the linked-list page store's per-page cost
grows with checkpoint count, plus the 100 ms freeze sleep) and "cache
infrequently-modified state" (~160 ms of collection per epoch gone).

Note: the unoptimized configurations stop the container for longer than
the 90 ms detection window, so — as discussed in the config docs — the
failure detector is disabled for these overhead-only measurements.
"""

from __future__ import annotations

from repro.experiments.common import overhead, run_compute_benchmark
from repro.replication.config import TABLE1_LEVELS, NiliconConfig

__all__ = ["PAPER_TABLE1", "run_table1"]

PAPER_TABLE1 = {
    "basic": 1940.0,
    "+criu-optimizations": 619.0,
    "+cache-infrequent-state": 84.0,
    "+plug-input-blocking": 65.0,
    "+netlink-vmas": 53.0,
    "+staging-buffer": 37.0,
    "+shm-page-transfer": 31.0,
}

#: Workload size for the sweep: long enough that the linked-list page
#: store accumulates checkpoint directories (the history-dependent cost
#: Table I's first row exposes), short enough to simulate quickly.
TOTAL_UNITS = 4_000


def run_table1(seed: int = 1, total_units: int = TOTAL_UNITS) -> list[dict]:
    workload_kwargs = {"total_units": total_units}
    stock = run_compute_benchmark(
        "streamcluster", "stock", seed=seed, workload_kwargs=workload_kwargs
    )
    rows = []
    for level, label in enumerate(TABLE1_LEVELS):
        config = NiliconConfig.table1_level(level).with_(detector_enabled=False)
        result = run_compute_benchmark(
            "streamcluster",
            "nilicon",
            seed=seed,
            config=config,
            workload_kwargs=workload_kwargs,
            timeout_us=600_000_000,
        )
        rows.append(
            {
                "level": level,
                "label": label,
                "overhead_pct": 100 * overhead(stock, result),
                "paper_pct": PAPER_TABLE1[label],
                "avg_stop_ms": result.metrics.avg_stop_us() / 1000,
            }
        )
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'configuration':<28}{'overhead %':>12}{'(paper %)':>11}{'stop ms':>9}"]
    for row in rows:
        lines.append(
            f"{row['label']:<28}{row['overhead_pct']:>12.0f}"
            f"{row['paper_pct']:>11.0f}{row['avg_stop_ms']:>9.1f}"
        )
    return "\n".join(lines)
