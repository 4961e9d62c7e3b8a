"""One cell of the protocol-phase fault-injection campaign.

Where :mod:`repro.experiments.validation` (§VII-A) injects fail-stop at
*random* times, the campaign sweeps the :data:`~repro.faultinject.SCENARIOS`
catalog — a fault pinned to every named injection point of the epoch
protocol, plus drop/duplicate/reorder/delay races on acks, state transfers
and heartbeats — across workloads and seeds, and evaluates the correctness
oracles (output commit, committed-epoch durability, client-session
consistency) after every cell.

:func:`run_phase_injection` runs one cell; the matrix itself (every
scenario × :data:`CAMPAIGN_WORKLOADS` × :data:`CAMPAIGN_SEEDS`, or
net-echo × the first three seeds with ``--smoke``) is part of the one
catalog pass, ``repro ftcov record`` (:mod:`repro.analysis.ftreplay`),
which must report zero violations.  Regression tests re-run the
sensitive cells with the ``unsafe_*`` config knobs to prove the campaign
catches the races the fixes removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import open_cell
from repro.faultinject import SCENARIOS, Scenario, evaluate_oracles
from repro.replication.config import NiliconConfig
from repro.sim.units import ms, sec
from repro.workloads.base import ServerWorkload

__all__ = [
    "CAMPAIGN_SEEDS",
    "CAMPAIGN_WORKLOADS",
    "PhaseCellResult",
    "run_phase_injection",
]

#: Server workloads the full matrix sweeps (clients validate every response,
#: so the client-session oracle has teeth).
CAMPAIGN_WORKLOADS = ("net-echo", "redis")
#: Seed set of the full matrix; the smoke matrix uses the first three.
CAMPAIGN_SEEDS = (101, 102, 103, 104, 105)
#: Clients start early enough to have steady-state traffic flowing through
#: the egress buffer well before the scenarios' TARGET_EPOCH (~epoch 12).
_CLIENT_START_US = ms(120)
#: Virtual run length per cell, plus a drain tail for in-flight requests.
_RUN_US = ms(1500)
_TAIL_US = sec(1)


@dataclass
class PhaseCellResult:
    """One (scenario, workload, seed) cell of the campaign matrix."""

    scenario: str
    workload: str
    seed: int
    failed_over: bool
    committed_epoch: int
    recovered_from_epoch: int | None
    client_completed: int
    violations: list[str] = field(default_factory=list)
    #: What the fault plan actually did (empty = the fault never triggered,
    #: which is itself reported as a violation).
    plan_log: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_phase_injection(
    workload_name: str,
    scenario: Scenario | str,
    seed: int,
    config: NiliconConfig | None = None,
    run_us: int = _RUN_US,
    instrument=None,
) -> PhaseCellResult:
    """Run one campaign cell and evaluate every oracle.

    *instrument* (if given) is called with the freshly built World before
    anything runs — the ftcov coverage recorder installs itself here.
    """
    if isinstance(scenario, str):
        scenario = SCENARIOS[scenario]
    cell = open_cell(
        workload_name, scenario.mode, seed, config=config, instrument=instrument
    )
    if not isinstance(cell.workload, ServerWorkload):
        raise ValueError(
            f"phase campaign needs a server workload with validating "
            f"clients, got {workload_name!r}"
        )
    deployment = cell.deployment
    cell.start()
    plan = scenario.arm(cell.world, deployment)
    cell.clients_at(_CLIENT_START_US, run_until_us=run_us)
    cell.world.run(until=run_us + _TAIL_US)
    deployment.stop()
    plan.disarm()

    violations = evaluate_oracles(
        deployment,
        cell.stats,
        expect_failover=scenario.expect_failover,
        expect_liveness=scenario.expect_liveness,
    )
    if not plan.log:
        violations.append(
            "fault plan never triggered (scenario did not exercise its window)"
        )
    return PhaseCellResult(
        scenario=scenario.name,
        workload=workload_name,
        seed=seed,
        failed_over=deployment.failed_over,
        committed_epoch=deployment.backup_agent.committed_epoch,
        recovered_from_epoch=deployment.backup_agent.recovered_from_epoch,
        client_completed=cell.stats.completed,
        violations=violations,
        plan_log=list(plan.log),
    )
