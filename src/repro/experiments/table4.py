"""Table IV: stop time and transferred state size, P10/P50/P90 (NiLiCon).

Paper reference values:

=============  ==================  =====================
benchmark      stop 10/50/90       state 10/50/90
=============  ==================  =====================
swaptions      5.1/5.1/5.2 ms      189K/193K/201K
streamcluster  6.3/6.4/13.1 ms     257K/269K/306K
redis          15/18/20 ms         17.9M/24.2M/30.0M
ssdb           9/10/11 ms          1.43M/2.88M/3.41M
node           38/41/46 ms         22.7M/24.2M/25.2M
lighttpd       20/25/35 ms         2.05M/7.17M/14.65M
djcms          16/18/21 ms         53.1K/9.5M/13.3M
=============  ==================  =====================

Shape claims: distributions are tight for the steady benchmarks
(swaptions, node) and wide where the workload is bursty (lighttpd state
size spans ~7x; djcms even more); the dirty-page component dominates the
state size (85%->95%+).
"""

from __future__ import annotations

from repro.experiments.suite import SuiteResults, run_suite, suite_benchmarks

__all__ = ["PAPER_TABLE4", "rows_from_suite", "run_table4"]

PAPER_TABLE4 = {
    "swaptions": {"stop_ms": (5.1, 5.1, 5.2), "state_mb": (0.189, 0.193, 0.201)},
    "streamcluster": {"stop_ms": (6.3, 6.4, 13.1), "state_mb": (0.257, 0.269, 0.306)},
    "redis": {"stop_ms": (15, 18, 20), "state_mb": (17.9, 24.2, 30.0)},
    "ssdb": {"stop_ms": (9, 10, 11), "state_mb": (1.43, 2.88, 3.41)},
    "node": {"stop_ms": (38, 41, 46), "state_mb": (22.7, 24.2, 25.2)},
    "lighttpd": {"stop_ms": (20, 25, 35), "state_mb": (2.05, 7.17, 14.65)},
    "djcms": {"stop_ms": (16, 18, 21), "state_mb": (0.0531, 9.5, 13.3)},
}

PERCENTILES = (10, 50, 90)


def rows_from_suite(results: SuiteResults) -> list[dict]:
    rows = []
    for name in suite_benchmarks(results):
        metrics = results[(name, "nilicon")].metrics
        epochs = metrics.steady_epochs()
        page_bytes = sum(e.dirty_pages for e in epochs) * 4096
        rows.append(
            {
                "benchmark": name,
                "stop_ms": tuple(metrics.stop_percentile(p) / 1000 for p in PERCENTILES),
                "state_mb": tuple(
                    metrics.state_bytes_percentile(p) / 1e6 for p in PERCENTILES
                ),
                # Share of the transferred state that is dirty pages.
                "page_share": page_bytes / max(1, sum(e.state_bytes for e in epochs)),
                "paper": PAPER_TABLE4[name],
            }
        )
    return rows


def run_table4(seed: int = 1) -> list[dict]:
    return rows_from_suite(run_suite(seed=seed))


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'benchmark':<14}{'stop P10/P50/P90 ms':>26}{'state P10/P50/P90 MB':>30}"]
    for row in rows:
        stop = "/".join(f"{v:.1f}" for v in row["stop_ms"])
        state = "/".join(f"{v:.2f}" for v in row["state_mb"])
        pstop = "/".join(f"{v:.1f}" for v in row["paper"]["stop_ms"])
        pstate = "/".join(f"{v:.2f}" for v in row["paper"]["state_mb"])
        lines.append(
            f"{row['benchmark']:<14}{stop:>14} ({pstop:>12}){state:>16} ({pstate:>12})"
        )
    return "\n".join(lines)
