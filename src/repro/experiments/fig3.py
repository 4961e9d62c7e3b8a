"""Figure 3: performance overhead of NiLiCon vs MC, with breakdown.

Paper reference values (percent overhead; "stopped" is the share of the
bar attributed to checkpoint stop time, the remainder is runtime overhead):

=============  ========  ========
benchmark      MC        NiLiCon
=============  ========  ========
swaptions      12.54     19.48
streamcluster  32.44     25.96
redis          67.32     33.71
ssdb           71.85     31.83
node           38.97     58.32
lighttpd       30.18     37.67
djcms          52.66     54.67
=============  ========  ========

The headline claims this figure supports, which the ``fig3.*`` clauses of
:func:`repro.experiments.paper.paper_problems` check:

* NiLiCon's overhead is the same order as MC's (competitive);
* NiLiCon's *runtime* component is lower than MC's for every benchmark;
* MC wins on the CPU-light benchmarks (swaptions), NiLiCon wins on the
  I/O-heavy ones (redis, ssdb);
* for NiLiCon, the stop component dominates for most benchmarks.
"""

from __future__ import annotations

from repro.experiments.common import RunResult, overhead

__all__ = ["PAPER_FIG3", "rows_from_suite"]

PAPER_FIG3 = {
    "swaptions": {"mc": 12.54, "nilicon": 19.48},
    "streamcluster": {"mc": 32.44, "nilicon": 25.96},
    "redis": {"mc": 67.32, "nilicon": 33.71},
    "ssdb": {"mc": 71.85, "nilicon": 31.83},
    "node": {"mc": 38.97, "nilicon": 58.32},
    "lighttpd": {"mc": 30.18, "nilicon": 37.67},
    "djcms": {"mc": 52.66, "nilicon": 54.67},
}


def rows_from_suite(suite: dict[str, dict[str, RunResult]]) -> list[dict]:
    """One row per benchmark of *suite* (benchmark -> mode -> run):
    measured overheads + stop/runtime split."""
    rows = []
    for name, runs in suite.items():
        row = {"benchmark": name}
        for mode in ("mc", "nilicon"):
            total = overhead(runs["stock"], runs[mode])
            stopped = min(total, runs[mode].stopped_fraction)
            row[f"{mode}_overhead_pct"] = 100 * total
            row[f"{mode}_stopped_pct"] = 100 * stopped
            row[f"{mode}_runtime_pct"] = 100 * (total - stopped)
            row[f"{mode}_paper_pct"] = PAPER_FIG3[name][mode]
        rows.append(row)
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'benchmark':<14}{'MC %':>8}{'(paper)':>9}{'NiLiCon %':>11}{'(paper)':>9}"
        f"{'NiLiCon stop %':>16}{'NiLiCon runtime %':>19}"
    ]
    for row in rows:
        lines.append(
            f"{row['benchmark']:<14}{row['mc_overhead_pct']:>8.2f}"
            f"{row['mc_paper_pct']:>9.2f}{row['nilicon_overhead_pct']:>11.2f}"
            f"{row['nilicon_paper_pct']:>9.2f}{row['nilicon_stopped_pct']:>16.2f}"
            f"{row['nilicon_runtime_pct']:>19.2f}"
        )
    return "\n".join(lines)
