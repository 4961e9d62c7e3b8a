"""Experiment drivers: one module per paper table/figure.

Each module exposes a ``run_*`` function returning plain-dict rows (so
benchmarks can print them and tests can assert on shapes) and carries the
paper's reference numbers alongside for EXPERIMENTS.md.

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
``faultcampaign`` protocol-phase fault matrix (every injection point)
``scalability``   §VII-C — threads / clients / processes sweeps
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
    run_phase_campaign,
    run_phase_injection,
)

__all__ = [
    "PhaseCellResult",
    "RunResult",
    "overhead",
    "run_compute_benchmark",
    "run_phase_campaign",
    "run_phase_injection",
    "run_server_benchmark",
]
