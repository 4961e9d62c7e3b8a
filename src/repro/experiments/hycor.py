"""HyCoR vs NiLiCon: the overhead-vs-recovery-latency tradeoff.

HyCoR (Zhou & Tamir; PAPERS.md) replaces NiLiCon's per-epoch output
commit with continuous nondeterminism-log shipping: external output is
released as soon as the covering ~3 ms log flush is durable on the
backup, instead of waiting for the ~30 ms checkpoint commit.  The cost
moves to recovery — after restoring the last checkpoint the backup must
replay the shipped log tail before promoting.

This module measures both sides of that trade across the catalog:

* **Overhead** — per workload, the throughput (server) or completion-time
  (compute) overhead of each mode relative to ``stock``, using the same
  steady-state methodology as Fig. 3.  For the latency-bound servers the
  release delay is on the critical path of every closed-loop client, so
  the overhead column directly reflects the output-commit rule.
* **Recovery** — the Table II breakdown (detection / restore / ARP /
  reconnect) per mode on the paper's two recovery benchmarks (Net and
  Redis), plus HyCoR's extra ``replay`` component, which is identically
  zero under NiLiCon (its recovery point *is* the last checkpoint).
* **Traffic** — the L7 tier's failover profile run fleet-wide under
  hycor: the open-loop SLO oracles must hold across the host fail-stop.

``run_hycor_bench`` compacts a comparison report into the checked-in
``BENCH_hycor.json`` in the one bench schema
(:mod:`repro.metrics.benchfile`), whose gate holds the overhead and
recovery-latency ceilings and the reduction-vs-nilicon floor.  Every cell
resets the identity counters and runs in a fresh world, so the numbers
are exactly replayable.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.experiments.common import open_cell, overhead, run_overhead
from repro.faultinject import evaluate_oracles
from repro.metrics import benchfile
from repro.sim.units import ms, sec
from repro.workloads.catalog import WORKLOADS

__all__ = [
    "COMPARISON_MODES",
    "RECOVERY_WORKLOADS",
    "SMOKE_WORKLOADS",
    "format_mode_comparison",
    "run_hycor_bench",
    "run_mode_comparison",
    "run_overhead_row",
    "run_recovery_cell",
    "tradeoff_problems",
]

COMPARISON_MODES = ("stock", "nilicon", "hycor")

#: CI subset: one latency-bound server, one throughput server, one
#: compute benchmark.  Cells are world-per-cell deterministic, so the
#: smoke values are byte-identical to the same cells of a full run.
SMOKE_WORKLOADS = ("net-echo", "redis", "swaptions")

#: The paper's recovery-latency benchmarks (Table II: Net and Redis).
RECOVERY_WORKLOADS = ("net", "redis")

_SERVER_DURATION_US = sec(1)
_RECOVERY_CRASH_AT_US = ms(700)
_RECOVERY_TAIL_US = sec(3)


# --------------------------------------------------------------------- #
# Overhead cells                                                         #
# --------------------------------------------------------------------- #
def run_overhead_row(
    workload_name: str,
    duration_us: int = _SERVER_DURATION_US,
    seed: int = 1,
) -> dict[str, Any]:
    """One comparison row: stock baseline + per-mode overhead (percent)."""
    cells = {}
    for mode in COMPARISON_MODES:
        cells[mode] = run_overhead(workload_name, mode, duration_us, seed)
    stock = cells["stock"]
    compute = stock.completion_us is not None
    row: dict[str, Any] = {
        "workload": workload_name,
        "kind": "compute" if compute else "server",
        "stock": (
            stock.completion_us if compute else round(stock.throughput, 1)
        ),
    }
    for mode in COMPARISON_MODES[1:]:
        row[f"{mode}_overhead_pct"] = round(100 * overhead(stock, cells[mode]), 2)
    row["reduction_pct"] = round(
        row["nilicon_overhead_pct"] - row["hycor_overhead_pct"], 2
    )
    return row


# --------------------------------------------------------------------- #
# Recovery cells                                                         #
# --------------------------------------------------------------------- #
def run_recovery_cell(
    workload_name: str, mode: str, seed: int = 1
) -> dict[str, Any]:
    """One fail-stop run; returns the Table II breakdown for *mode*.

    Clients run throughout, so the oracles audit the failover for
    acknowledged-write loss at the same time the breakdown is captured.
    """
    cell = open_cell(workload_name, mode, seed)
    deployment = cell.deployment
    cell.start()
    run_until = _RECOVERY_CRASH_AT_US + _RECOVERY_TAIL_US
    cell.clients_at(ms(120), run_until_us=run_until)
    cell.fail_stop_at(_RECOVERY_CRASH_AT_US)
    cell.world.run(until=run_until)
    deployment.stop()

    violations = evaluate_oracles(deployment, cell.stats, expect_failover=True)
    recovery = deployment.metrics.recovery
    if recovery is None:
        violations.append(f"{workload_name}/{mode}: no recovery was recorded")
        recovery_fields = {}
    else:
        recovery_fields = {
            "detection_us": recovery.detection_us,
            "restore_us": recovery.restore_us,
            "arp_us": recovery.arp_us,
            "reconnect_us": recovery.reconnect_us,
            "replay_us": recovery.replay_us,
            "total_us": recovery.total_recovery_us,
        }
    return {
        "workload": workload_name,
        "mode": mode,
        "ok": not violations,
        "violations": violations,
        **recovery_fields,
    }


# --------------------------------------------------------------------- #
# The comparison report                                                  #
# --------------------------------------------------------------------- #
def run_mode_comparison(
    workloads: Iterable[str] | None = None,
    smoke: bool = False,
    seed: int = 1,
) -> dict[str, Any]:
    """Overhead rows + recovery breakdowns + the hycor traffic failover.

    ``ok`` asserts the tradeoff itself: every server workload's hycor
    overhead is at or below nilicon's (log-commit releases strictly
    earlier than checkpoint-commit), hycor recovery replays a non-empty
    log tail where nilicon replays nothing, and every fail-stop cell and
    the traffic failover hold their oracles.
    """
    from repro.experiments.traffic import run_traffic_event

    if workloads is None:
        workloads = SMOKE_WORKLOADS if smoke else tuple(WORKLOADS)
    rows = [run_overhead_row(name, seed=seed) for name in workloads]

    recovery: list[dict[str, Any]] = []
    for name in RECOVERY_WORKLOADS:
        for mode in ("nilicon", "hycor"):
            recovery.append(run_recovery_cell(name, mode, seed=seed))

    traffic = run_traffic_event("failover", seed=seed, mode="hycor")
    traffic_cell = {
        "mode": "hycor",
        "ok": not traffic["violations"],
        "violations": traffic["violations"],
        "requests": traffic["client"]["completed"],
        "p99_us": traffic["row"].p99_us,
    }

    problems = tradeoff_problems(rows, recovery, traffic_cell)
    by_cell = {(c["workload"], c["mode"]): c for c in recovery}
    return {
        "seed": seed,
        "smoke": smoke,
        "rows": rows,
        "recovery": recovery,
        "recovery_by_cell": {
            f"{w}/{m}": c for (w, m), c in sorted(by_cell.items())
        },
        "traffic": traffic_cell,
        "problems": problems,
        "ok": not problems,
    }


def tradeoff_problems(
    rows: list[dict[str, Any]],
    recovery: list[dict[str, Any]],
    traffic_cell: dict[str, Any],
) -> list[str]:
    """The tradeoff oracle over a comparison's overhead rows, recovery
    cells and hycor traffic cell; returns its problems (empty = holds)."""
    problems: list[str] = []
    for row in rows:
        if row["kind"] == "server" and row["reduction_pct"] < -1.0:
            problems.append(
                f"{row['workload']}: hycor overhead "
                f"{row['hycor_overhead_pct']}% exceeds nilicon's "
                f"{row['nilicon_overhead_pct']}% — log-commit release "
                "should never lose to checkpoint-commit"
            )
    for cell in recovery:
        problems += cell["violations"]
        if cell["mode"] == "hycor" and cell.get("replay_us", 0) <= 0:
            problems.append(
                f"{cell['workload']}/hycor: recovery replayed no log tail"
            )
        if cell["mode"] == "nilicon" and cell.get("replay_us", 0) != 0:
            problems.append(
                f"{cell['workload']}/nilicon: nonzero replay time "
                f"{cell['replay_us']} us in a checkpoint-only mode"
            )
    problems += traffic_cell["violations"]
    return problems


def format_mode_comparison(report: dict[str, Any]) -> str:
    lines = [
        f"{'workload':<14}{'kind':<9}{'nilicon %':>10}{'hycor %':>9}"
        f"{'reduction':>11}"
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['workload']:<14}{row['kind']:<9}"
            f"{row['nilicon_overhead_pct']:>10.2f}"
            f"{row['hycor_overhead_pct']:>9.2f}"
            f"{row['reduction_pct']:>10.2f}p"
        )
    lines.append("")
    lines.append(
        f"{'recovery':<14}{'mode':<9}{'restore ms':>11}{'replay ms':>10}"
        f"{'total ms':>9}"
    )
    for cell in report["recovery"]:
        lines.append(
            f"{cell['workload']:<14}{cell['mode']:<9}"
            f"{cell.get('restore_us', 0) / 1000:>11.1f}"
            f"{cell.get('replay_us', 0) / 1000:>10.1f}"
            f"{cell.get('total_us', 0) / 1000:>9.1f}"
        )
    traffic = report["traffic"]
    lines.append("")
    lines.append(
        f"traffic failover under hycor: "
        f"{'ok' if traffic['ok'] else 'VIOLATIONS'} "
        f"({traffic['requests']} requests, p99 "
        f"{traffic['p99_us'] / 1000:.1f} ms)"
    )
    lines.append(
        "comparison: "
        + ("tradeoff holds" if report["ok"]
           else f"{len(report['problems'])} problem(s)")
    )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Bench                                                                  #
# --------------------------------------------------------------------- #
#: Per-workload metrics: (field, unit, gate).  The percentage-point
#: metrics sit near zero, so their band is floored at 2 points.
_WORKLOAD_METRICS = (
    ("nilicon_overhead_pct", "%", {}),
    ("hycor_overhead_pct", "%", {"better": "lower", "min_band": 2.0}),
    ("reduction_pct", "pp", {"better": "higher", "min_band": 2.0}),
)
_RECOVERY_METRICS = (
    ("detection_us", "us", {}),
    ("restore_us", "us", {}),
    ("replay_us", "us", {}),
    ("total_us", "us", {"better": "lower"}),
)


def run_hycor_bench(report: dict[str, Any]) -> dict[str, Any]:
    """The pinnable cells of a ``run_mode_comparison`` *report*, for the
    checked-in BENCH_hycor.json.

    Simulated time makes every cell exact and replayable; each cell runs
    in its own world behind a counter reset, so a smoke run's cells are
    byte-identical to the same cells of a full run and the gate can
    compare whichever subset is present."""
    metrics: dict[str, Any] = {}
    for row in report["rows"]:
        name = row["workload"]
        # A compute row's stock baseline is a completion time, a server
        # row's a saturated throughput.
        metrics[f"{name}.stock"] = {
            "value": row["stock"],
            "unit": "us" if row["kind"] == "compute" else "ops/s",
        }
        metrics.update({
            f"{name}.{field}": {"value": row[field], "unit": unit, **gate}
            for field, unit, gate in _WORKLOAD_METRICS
        })
    for key, cell in report["recovery_by_cell"].items():
        metrics.update({
            f"{key}.{field}": {"value": cell.get(field, 0), "unit": unit, **gate}
            for field, unit, gate in _RECOVERY_METRICS
        })
    traffic = report["traffic"]
    metrics["traffic.requests"] = {
        "value": traffic["requests"], "unit": "requests",
    }
    metrics["traffic.p99_us"] = {"value": traffic["p99_us"], "unit": "us"}
    return {
        "schema": benchfile.SCHEMA,
        "bench": "hycor",
        "seed": report["seed"],
        "smoke": report["smoke"],
        "ok": report["ok"],
        "problems": report["problems"],
        "metrics": metrics,
        "info": {"kind": {row["workload"]: row["kind"] for row in report["rows"]}},
    }
