"""Fleet-wide metrics rollup.

Each member accumulates one :class:`~repro.metrics.collector.RunMetrics`
per protection *generation* (initial deployment, then one per re-pair).
:class:`FleetMetrics` rolls those up across the fleet — per-member overhead
and recovery counters, plus the aggregates the fleet experiments report
(the ``fleet_campaign`` and ``fleet_pool`` cells of the paper gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.metrics.stats import mean

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.controller import FleetController

__all__ = ["FleetMetrics", "MemberSummary"]


@dataclass
class MemberSummary:
    """One member's rolled-up numbers across all its generations."""

    name: str
    state: str
    primary: str | None
    backup: str | None
    generations: int
    failovers: int
    reprotects: int
    migrations: int
    migration_aborts: int
    epochs: int
    avg_stop_us: float
    packets_released: int
    backup_cpu_us: int
    reprotect_latencies_us: list[int] = field(default_factory=list)
    degraded_us: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "primary": self.primary,
            "backup": self.backup,
            "generations": self.generations,
            "failovers": self.failovers,
            "reprotects": self.reprotects,
            "migrations": self.migrations,
            "migration_aborts": self.migration_aborts,
            "epochs": self.epochs,
            "avg_stop_us": round(self.avg_stop_us, 1),
            "packets_released": self.packets_released,
            "backup_cpu_us": self.backup_cpu_us,
            "reprotect_latencies_us": list(self.reprotect_latencies_us),
            "degraded_us": self.degraded_us,
        }


@dataclass
class FleetMetrics:
    """Everything one fleet run measured."""

    members: list[MemberSummary] = field(default_factory=list)
    controller_restarts: int = 0
    hosts_total: int = 0
    hosts_failed: int = 0
    free_slots: int = 0

    @classmethod
    def collect(cls, controller: "FleetController") -> "FleetMetrics":
        members = []
        for name in sorted(controller.members):
            member = controller.members[name]
            runs = [d.metrics for d in member.deployments]
            # The latest protected generation carries the steady-state
            # per-epoch view; counters sum over all generations.
            latest = runs[-1] if runs else None
            members.append(
                MemberSummary(
                    name=name,
                    state=member.state,
                    primary=member.primary,
                    backup=member.backup,
                    generations=len(member.deployments),
                    failovers=member.failovers,
                    reprotects=member.reprotects,
                    migrations=member.migrations,
                    migration_aborts=member.migration_aborts,
                    epochs=sum(r.n_epochs for r in runs),
                    avg_stop_us=latest.avg_stop_us() if latest and latest.epochs else 0.0,
                    packets_released=sum(r.packets_released for r in runs),
                    backup_cpu_us=sum(r.backup_cpu_us for r in runs),
                    reprotect_latencies_us=list(member.reprotect_latencies_us),
                    degraded_us=member.degraded_us,
                )
            )
        pool = controller.pool
        return cls(
            members=members,
            controller_restarts=controller.controller_restarts,
            hosts_total=len(pool.hosts),
            hosts_failed=sum(1 for h in pool.hosts.values() if h.failed),
            free_slots=pool.total_free_slots(),
        )

    # -- aggregates ------------------------------------------------------ #
    @property
    def total_failovers(self) -> int:
        return sum(m.failovers for m in self.members)

    @property
    def total_reprotects(self) -> int:
        return sum(m.reprotects for m in self.members)

    @property
    def protected_members(self) -> int:
        return sum(1 for m in self.members if m.state == "protected")

    @property
    def degraded_members(self) -> int:
        return sum(1 for m in self.members if m.state == "degraded")

    @property
    def dead_members(self) -> int:
        return sum(1 for m in self.members if m.state == "dead")

    def mean_reprotect_latency_us(self) -> float:
        latencies = [l for m in self.members for l in m.reprotect_latencies_us]
        return mean(latencies) if latencies else 0.0

    def mean_stop_us(self) -> float:
        stops = [m.avg_stop_us for m in self.members if m.avg_stop_us > 0]
        return mean(stops) if stops else 0.0

    def to_dict(self) -> dict:
        return {
            "members": [m.to_dict() for m in self.members],
            "controller_restarts": self.controller_restarts,
            "hosts_total": self.hosts_total,
            "hosts_failed": self.hosts_failed,
            "free_slots": self.free_slots,
            "total_failovers": self.total_failovers,
            "total_reprotects": self.total_reprotects,
            "protected_members": self.protected_members,
            "degraded_members": self.degraded_members,
            "dead_members": self.dead_members,
            "mean_reprotect_latency_us": round(self.mean_reprotect_latency_us(), 1),
            "mean_stop_us": round(self.mean_stop_us(), 1),
        }
