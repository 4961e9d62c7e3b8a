"""Table II: recovery latency breakdown (paper §VII-B).

Paper reference values:

======  ==========  =========  =========  ========  ========
bench   Restore     ARP        TCP        Others    Total
======  ==========  =========  =========  ========  ========
Net     218ms 71%   28ms 9%    54ms 18%   7ms 2%    307ms
Redis   314ms 84%   28ms 8%    23ms 6%    7ms 2%    372ms
======  ==========  =========  =========  ========  ========

Methodology, following the paper: the service interruption seen by probe
clients is the jump in response time around the failover; the detection
latency (~90 ms mean) is subtracted to get recovery latency.  Restore/ARP
come from the backup agent's instrumentation; TCP is the residual
retransmission delay not overlapped with other recovery actions.

Shape claims: restore dominates (~3/4); Redis's restore exceeds Net's by
the time to restore its ~100 MB (here, scaled ~32 MB) of memory; the ARP
component is constant; the repaired-socket minimum RTO keeps the TCP
component small relative to the 1 s default.
"""

from __future__ import annotations

from repro.experiments.common import open_cell
from repro.sim.units import ms, sec

__all__ = ["PAPER_TABLE2", "run_table2"]

PAPER_TABLE2 = {
    "net": {"restore_ms": 218, "arp_ms": 28, "tcp_ms": 54, "others_ms": 7, "total_ms": 307},
    "redis": {"restore_ms": 314, "arp_ms": 28, "tcp_ms": 23, "others_ms": 7, "total_ms": 372},
}


def _measure(workload_name: str, seed: int) -> dict:
    cell = open_cell(workload_name, "nilicon", seed)
    deployment, stats = cell.deployment, cell.stats
    cell.start()
    fault_at = ms(900)
    if workload_name == "redis":
        cell.clients_at(ms(400), batch_size=4, window=1, run_until_us=sec(6))
    else:
        cell.clients_at(ms(400), run_until_us=sec(6), gap_us=ms(5))
    cell.fail_stop_at(fault_at)
    cell.world.run(until=sec(7))

    assert deployment.failed_over, f"{workload_name}: no failover happened"
    assert stats.ok, f"{workload_name}: client errors {stats.errors} {stats.validation_failures[:2]}"

    # Service interruption: the response-time spike spanning the failover.
    spike = max(stats.latencies_us)
    baseline = sorted(stats.latencies_us)[len(stats.latencies_us) // 2]
    interruption = spike - baseline
    detector = deployment.backup_agent.detector
    detection = detector.fired_at - fault_at
    recovery = deployment.metrics.recovery
    restore = recovery.restore_us
    arp = recovery.arp_us
    others = recovery.reconnect_us
    # TCP component: the residual client-visible delay not explained by
    # detection + instrumented recovery actions.
    tcp = max(0, interruption - detection - restore - arp - others)
    total = interruption - detection
    return {
        "benchmark": workload_name,
        "interruption_ms": interruption / 1000,
        "detection_ms": detection / 1000,
        "restore_ms": restore / 1000,
        "arp_ms": arp / 1000,
        "tcp_ms": tcp / 1000,
        "others_ms": others / 1000,
        "total_ms": total / 1000,
        "paper": PAPER_TABLE2[workload_name],
    }


def run_table2(seed: int = 1) -> list[dict]:
    """Measure the recovery-latency breakdown for Net and Redis."""
    return [_measure("net", seed), _measure("redis", seed)]


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'bench':<8}{'restore ms':>11}{'(paper)':>9}{'arp ms':>8}{'(paper)':>9}"
        f"{'tcp ms':>8}{'(paper)':>9}{'total ms':>10}{'(paper)':>9}"
    ]
    for row in rows:
        p = row["paper"]
        lines.append(
            f"{row['benchmark']:<8}{row['restore_ms']:>11.0f}{p['restore_ms']:>9.0f}"
            f"{row['arp_ms']:>8.0f}{p['arp_ms']:>9.0f}{row['tcp_ms']:>8.0f}"
            f"{p['tcp_ms']:>9.0f}{row['total_ms']:>10.0f}{p['total_ms']:>9.0f}"
        )
    return "\n".join(lines)
