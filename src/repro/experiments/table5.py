"""Table V: core utilization on active and backup hosts.

Paper reference values (cores):

=============  =======  =======
benchmark      active   backup
=============  =======  =======
swaptions      3.96     0.07
streamcluster  3.91     0.08
redis          0.98     0.28
ssdb           1.70     0.12
node           1.01     0.40
lighttpd       3.95     0.18
djcms          1.41     0.26
=============  =======  =======

Shape claims: backup utilization is far below active (the warm-spare
advantage over active replication, §VIII); Node's backup utilization
exceeds Redis's despite similar transferred state, because Node's state
arrives in many small chunks (socket dumps) costing more read() calls.
"""

from __future__ import annotations

from repro.experiments.common import RunResult

__all__ = ["PAPER_TABLE5", "rows_from_suite"]

PAPER_TABLE5 = {
    "swaptions": {"active": 3.96, "backup": 0.07},
    "streamcluster": {"active": 3.91, "backup": 0.08},
    "redis": {"active": 0.98, "backup": 0.28},
    "ssdb": {"active": 1.70, "backup": 0.12},
    "node": {"active": 1.01, "backup": 0.40},
    "lighttpd": {"active": 3.95, "backup": 0.18},
    "djcms": {"active": 1.41, "backup": 0.26},
}


def rows_from_suite(suite: dict[str, dict[str, RunResult]]) -> list[dict]:
    rows = []
    for name, runs in suite.items():
        # Active utilization: container cgroup CPU per wall second on an
        # unreplicated host (the paper measured it without replication).
        stock = runs["stock"]
        nil = runs["nilicon"]
        rows.append(
            {
                "benchmark": name,
                "active_cores": stock.extra.get("active_cores", 0.0),
                "backup_cores": nil.metrics.backup_core_utilization(),
                "paper": PAPER_TABLE5[name],
            }
        )
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'benchmark':<14}{'active':>8}{'(paper)':>9}{'backup':>8}{'(paper)':>9}"]
    for row in rows:
        p = row["paper"]
        lines.append(
            f"{row['benchmark']:<14}{row['active_cores']:>8.2f}{p['active']:>9.2f}"
            f"{row['backup_cores']:>8.2f}{p['backup']:>9.2f}"
        )
    return "\n".join(lines)
