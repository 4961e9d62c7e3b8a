"""§VII-A validation: the fault-injection recovery campaign.

Paper methodology: every benchmark runs for at least 60 s; a fail-stop
fault is injected at a random time within the middle 80% of the run
(emulated by blocking all the primary's network traffic); recovery is
successful when no validation errors are flagged and no TCP connection
broke.  "Each benchmark is executed 50 times.  We find that in all the
executions NiLiCon is able to detect and recover from the container
failure with no broken network connections!"

This reproduction runs the same campaign with seconds of *virtual* time
per run.  Success criteria per workload class:

* KV stores — every get matches the client's shadow map (read-your-acked-
  writes across failover); no client errors.
* Web/echo servers — every response matches the golden copy; no broken
  connections.
* disk-rw — the in-container validator flagged no mismatches.
* compute — the final output pages equal a golden (stock) run's.

Each run is also judged by the fault campaign's shared oracles
(:func:`repro.faultinject.evaluate_oracles`): the failover happened, output
commit held with no release lag, released output is durable, recovery ran
exactly once and left no open page-store checkpoint, and (for servers) the
clients saw no error or validation failure and made progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import open_cell
from repro.faultinject import evaluate_oracles
from repro.sim.units import ms, sec
from repro.workloads.base import ComputeWorkload, ServerWorkload
from repro.workloads.microbench import DiskRwWorkload
from repro.workloads.parsec import ParsecWorkload

__all__ = ["CampaignResult", "VALIDATION_WORKLOADS", "run_validation_campaign", "run_one_injection"]

#: Workloads in the paper's campaign (7 benchmarks + 2 microbenchmarks).
VALIDATION_WORKLOADS = (
    "swaptions",
    "streamcluster",
    "redis",
    "ssdb",
    "node",
    "lighttpd",
    "djcms",
    "disk-rw",
    "net-echo",
)


@dataclass
class CampaignResult:
    workload: str
    runs: int = 0
    recovered: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def recovery_rate(self) -> float:
        return self.recovered / self.runs if self.runs else 0.0


def _golden_compute_signature(name: str, seed: int) -> dict:
    cell = open_cell(name, "stock", seed)
    world, workload, container = cell.world, cell.workload, cell.deployment.container
    cell.start()
    while not workload.is_complete(container):
        world.run(until=world.now + ms(20))
    return workload.result_signature(container)


def run_one_injection(name: str, seed: int, run_us: int = sec(3)) -> list[str]:
    """One fault-injection run; returns the list of failure descriptions."""
    cell = open_cell(name, "nilicon", seed)
    world, workload, deployment, stats = (
        cell.world, cell.workload, cell.deployment, cell.stats
    )
    cell.start()
    if isinstance(workload, ServerWorkload):
        cell.clients_at(ms(400), run_until_us=run_us)

    # Random injection in the middle 80% of the run.
    frac = 0.1 + 0.8 * world.rng.stream("fault-injection").random()
    cell.fail_stop_at(max(ms(500), int(run_us * frac)))

    if isinstance(workload, ComputeWorkload):
        deadline = sec(60)
        while world.now < deadline:
            world.run(until=min(deadline, world.now + ms(50)))
            restored = deployment.restored_container
            if restored is not None and workload.is_complete(restored):
                break
    else:
        # Allow in-flight requests to complete after the failover.
        world.run(until=run_us + sec(3))

    failures = evaluate_oracles(deployment, stats, expect_failover=True,
                                expect_liveness=isinstance(workload, ServerWorkload))
    restored = deployment.restored_container
    if restored is None:
        return failures
    if isinstance(workload, DiskRwWorkload):
        failures.extend(workload.errors[:5])
        if workload.operations == 0:
            failures.append("disk-rw made no progress")
    if isinstance(workload, ParsecWorkload):
        if not workload.is_complete(restored):
            failures.append("compute workload did not finish after failover")
        else:
            golden = _golden_compute_signature(name, seed)
            if workload.result_signature(restored) != golden:
                failures.append("final output differs from golden copy")
    return failures


def run_validation_campaign(
    workloads=VALIDATION_WORKLOADS, runs_per_workload: int = 50, base_seed: int = 100
) -> list[CampaignResult]:
    results = []
    for name in workloads:
        campaign = CampaignResult(workload=name)
        for run in range(runs_per_workload):
            failures = run_one_injection(name, seed=base_seed + run)
            campaign.runs += 1
            if failures:
                campaign.failures.extend(f"run {run}: {f}" for f in failures)
            else:
                campaign.recovered += 1
        results.append(campaign)
    return results


def format_rows(results: list[CampaignResult]) -> str:
    lines = [f"{'workload':<15}{'runs':>6}{'recovered':>11}{'rate':>8}"]
    for r in results:
        lines.append(
            f"{r.workload:<15}{r.runs:>6}{r.recovered:>11}{100 * r.recovery_rate:>7.0f}%"
        )
    return "\n".join(lines)
