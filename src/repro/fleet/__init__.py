"""repro.fleet — cluster orchestration over NiLiCon pairs.

Many replicated containers on a capacity-tracked host pool: deterministic
placement, failure-detector-driven failover pickup, automatic
re-protection (including degraded mode when spares run out), and planned
live rebalancing via CRIU migration with output-commit-safe cutover.
:func:`open_fleet` stands up one fleet world and :class:`FleetCell` holds
it, with the oracles every fleet experiment applies.
"""

from repro.fleet.controller import FleetController, FleetMember
from repro.fleet.metrics import FleetMetrics, MemberSummary
from repro.fleet.placement import PlacementDecision, place, replacement_backup
from repro.fleet.pool import HostPool, PoolExhausted
from repro.fleet.service import CounterService, FleetCell, FleetWorkload, open_fleet
from repro.fleet.spec import FleetSpec

__all__ = [
    "CounterService",
    "FleetCell",
    "FleetController",
    "FleetMember",
    "FleetMetrics",
    "FleetSpec",
    "FleetWorkload",
    "HostPool",
    "MemberSummary",
    "PlacementDecision",
    "PoolExhausted",
    "open_fleet",
    "place",
    "replacement_backup",
]
