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

The paper gate (:mod:`repro.experiments.paper`) runs the three sides as
its ``hycor``, ``hycor_recovery`` and ``hycor_traffic`` artifacts, pins
every cell exactly in ``BENCH_paper.json`` and states the tradeoff as
clauses.  Every cell resets the identity counters and runs in a fresh
world, so the numbers are exactly replayable.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.common import open_cell, overhead, run_overhead
from repro.faultinject import evaluate_oracles
from repro.sim.units import ms, sec

__all__ = [
    "COMPARISON_MODES",
    "RECOVERY_WORKLOADS",
    "SMOKE_WORKLOADS",
    "run_overhead_row",
    "run_recovery_cell",
    "run_traffic_cell",
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
    """One comparison row: the stock baseline (a compute workload's
    completion time, a server's saturated throughput) and each mode's
    overhead in percent."""
    cells = {}
    for mode in COMPARISON_MODES:
        cells[mode] = run_overhead(workload_name, mode, duration_us, seed)
    stock = cells["stock"]
    compute = stock.completion_us is not None
    row: dict[str, Any] = {
        "workload": workload_name,
        "kind": "compute" if compute else "server",
    }
    if compute:
        row["stock_us"] = stock.completion_us
    else:
        row["stock_throughput"] = round(stock.throughput, 1)
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
        recovery_fields = dict.fromkeys(
            ("detection_us", "restore_us", "arp_us", "reconnect_us",
             "replay_us", "total_us"), 0,
        )
    else:
        detector = deployment.backup_agent.detector
        recovery_fields = {
            "detection_us": detector.fired_at - _RECOVERY_CRASH_AT_US,
            "restore_us": recovery.restore_us,
            "arp_us": recovery.arp_us,
            "reconnect_us": recovery.reconnect_us,
            "replay_us": recovery.replay_us,
            "total_us": recovery.total_recovery_us,
        }
    return {
        "cell": f"{workload_name}/{mode}",
        "workload": workload_name,
        "mode": mode,
        "ok": not violations,
        "violations": violations,
        **recovery_fields,
    }


# --------------------------------------------------------------------- #
# Traffic cell                                                           #
# --------------------------------------------------------------------- #
def run_traffic_cell(seed: int = 1) -> dict[str, Any]:
    """The L7 tier's failover profile under hycor, fleet-wide."""
    from repro.experiments.traffic import run_traffic_event

    traffic = run_traffic_event("failover", seed=seed, mode="hycor")
    return {
        "profile": "failover",
        "requests": traffic["client"]["completed"],
        "p99_us": traffic["row"].p99_us,
        "violations": traffic["violations"],
    }
