"""Table III: average stop time and dirty pages per epoch, MC vs NiLiCon.

Paper reference values:

=============  =========  ==============  ==========  ==============
benchmark      MC stop    NiLiCon stop    MC dpages   NiLiCon dpages
=============  =========  ==============  ==========  ==============
swaptions      2.4 ms     5.1 ms          212         46
streamcluster  3.0 ms     7.4 ms          303*        303
redis          9.3 ms     18.9 ms         6.2 K       6.3 K
ssdb           3.0 ms     10.4 ms         1107        590
node           9.4 ms     38.2 ms         6.4 K       5.4 K
lighttpd       4.8 ms     25.0 ms         2.9 K       1.6 K
djcms          4.5 ms     19.1 ms         2.8 K       3.0 K
=============  =========  ==============  ==========  ==============

(*MC streamcluster dirty count in the paper is 462.)

Shape claims asserted by the bench: NiLiCon's stop time exceeds MC's for
every benchmark (in-kernel state must be pried out through syscalls), and
Node has NiLiCon's largest stop time (socket-state collection at 128
clients).
"""

from __future__ import annotations

from repro.experiments.suite import SuiteResults, run_suite, suite_benchmarks

__all__ = ["PAPER_TABLE3", "rows_from_suite", "run_table3"]

PAPER_TABLE3 = {
    "swaptions": {"mc_stop_ms": 2.4, "nilicon_stop_ms": 5.1, "mc_dpages": 212, "nilicon_dpages": 46},
    "streamcluster": {"mc_stop_ms": 3.0, "nilicon_stop_ms": 7.4, "mc_dpages": 462, "nilicon_dpages": 303},
    "redis": {"mc_stop_ms": 9.3, "nilicon_stop_ms": 18.9, "mc_dpages": 6200, "nilicon_dpages": 6300},
    "ssdb": {"mc_stop_ms": 3.0, "nilicon_stop_ms": 10.4, "mc_dpages": 1107, "nilicon_dpages": 590},
    "node": {"mc_stop_ms": 9.4, "nilicon_stop_ms": 38.2, "mc_dpages": 6400, "nilicon_dpages": 5400},
    "lighttpd": {"mc_stop_ms": 4.8, "nilicon_stop_ms": 25.0, "mc_dpages": 2900, "nilicon_dpages": 1600},
    "djcms": {"mc_stop_ms": 4.5, "nilicon_stop_ms": 19.1, "mc_dpages": 2800, "nilicon_dpages": 3000},
}


def rows_from_suite(results: SuiteResults) -> list[dict]:
    rows = []
    for name in suite_benchmarks(results):
        mc = results[(name, "mc")].metrics
        nil = results[(name, "nilicon")].metrics
        rows.append(
            {
                "benchmark": name,
                "mc_stop_ms": mc.avg_stop_us() / 1000,
                "nilicon_stop_ms": nil.avg_stop_us() / 1000,
                "mc_dpages": mc.avg_dirty_pages(),
                "nilicon_dpages": nil.avg_dirty_pages(),
                "paper": PAPER_TABLE3[name],
            }
        )
    return rows


def run_table3(seed: int = 1) -> list[dict]:
    return rows_from_suite(run_suite(seed=seed))


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'benchmark':<14}{'MC stop ms':>11}{'(paper)':>9}{'NiLi stop ms':>13}"
        f"{'(paper)':>9}{'MC dpages':>11}{'(paper)':>9}{'NiLi dpages':>12}{'(paper)':>9}"
    ]
    for row in rows:
        p = row["paper"]
        lines.append(
            f"{row['benchmark']:<14}{row['mc_stop_ms']:>11.1f}{p['mc_stop_ms']:>9.1f}"
            f"{row['nilicon_stop_ms']:>13.1f}{p['nilicon_stop_ms']:>9.1f}"
            f"{row['mc_dpages']:>11.0f}{p['mc_dpages']:>9.0f}"
            f"{row['nilicon_dpages']:>12.0f}{p['nilicon_dpages']:>9.0f}"
        )
    return "\n".join(lines)
