"""Experiment drivers: one module per paper table/figure.

Each module exposes a ``run_*`` function returning plain-dict rows (so
the paper gate can print them and check their shapes) and carries the
paper's reference numbers alongside for EXPERIMENTS.md; Fig. 3 and
Tables III–V instead derive their rows (``rows_from_suite``) from the
suite cells the paper gate runs once per call.

================  ==========================================================
module            paper artifact
================  ==========================================================
``table1``        Table I — cumulative impact of the optimizations
``table2``        Table II — recovery latency breakdown (Net, Redis)
``fig3``          Figure 3 — overhead vs MC with runtime/stopped breakdown
``table3``        Table III — average stop time & dirty pages per epoch
``table4``        Table IV — stop time / state size P10-P50-P90
``table5``        Table V — core utilization, active vs backup host
``table6``        Table VI — single-client response latency
``validation``    §VII-A — fault-injection recovery campaign
``faultcampaign`` one protocol-phase fault cell (``repro ftcov record``)
``scalability``   §VII-C — threads / clients / processes sweeps
``ablations``     leave-one-out, epoch/detection/RTO/compression, §VIII
``hycor``         HyCoR vs NiLiCon — overhead, recovery and traffic cells
``fleet``         fleet campaign; containers-per-pair and pool-size sweeps
``traffic``       L7 SLO campaign; its smoke profiles are the traffic cells
``engine``        the engine's exact work counters (§VI state cache's saving)
``paper``         the paper gate: the artifact registry, cells and clauses
================  ==========================================================
"""

from repro.experiments.common import (
    RunResult,
    overhead,
    run_compute_benchmark,
    run_server_benchmark,
)
from repro.experiments.faultcampaign import (
    PhaseCellResult,
    run_phase_injection,
)

__all__ = [
    "PhaseCellResult",
    "RunResult",
    "overhead",
    "run_compute_benchmark",
    "run_phase_injection",
    "run_server_benchmark",
]
