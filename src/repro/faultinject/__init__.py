"""Deterministic, phase-aware fault injection (the robustness layer).

The §VII-A validation campaign injects fail-stop faults at *random* times;
it cannot reliably hit the microsecond-wide protocol windows where a
replication implementation is actually wrong.  This package pins faults to
*named protocol phases* instead:

* :mod:`~repro.faultinject.points` — the injection-point registry (the
  ftcov selfcheck proves every registered point has a live hook site);
* :mod:`~repro.faultinject.plan` — :class:`FaultPlan` /
  :class:`PointFault` / :class:`LinkFault`, the deterministic rule engine
  consulted from :func:`repro.sim.faults.fault_point` hooks and from
  :meth:`Channel._transmit <repro.net.link.Channel._transmit>`;
* :mod:`~repro.faultinject.actions` — reusable fire-time actions
  (fail-stop the primary, spurious re-detection);
* :mod:`~repro.faultinject.oracles` — the output-commit, durability and
  client-session invariants checked after every run;
* :mod:`~repro.faultinject.scenarios` — the campaign catalog: one cell per
  protocol window plus link-level message races.

One campaign cell is
:func:`repro.experiments.faultcampaign.run_phase_injection`; the one
catalog pass that runs every cell is :mod:`repro.analysis.ftreplay`
(``repro ftcov record`` on the command line).
"""

from repro.faultinject.actions import crash_primary, spurious_redetect
from repro.faultinject.oracles import evaluate_oracles
from repro.faultinject.plan import FaultPlan, LinkFault, PointFault
from repro.faultinject.points import (
    FAULT_POINTS,
    FLEET_FAULT_POINTS,
    LINK_MESSAGE_KINDS,
)
from repro.faultinject.scenarios import SCENARIOS, Scenario, TARGET_EPOCH

__all__ = [
    "FAULT_POINTS",
    "FLEET_FAULT_POINTS",
    "FaultPlan",
    "LINK_MESSAGE_KINDS",
    "LinkFault",
    "PointFault",
    "SCENARIOS",
    "Scenario",
    "TARGET_EPOCH",
    "crash_primary",
    "evaluate_oracles",
    "spurious_redetect",
]
