"""Fleet deployment descriptions.

A :class:`FleetSpec` is the static description of a whole protected fleet:
how many containers, over how large a host pool, packed by which placement
strategy.  It expands into per-member :class:`~repro.container.spec.
ContainerSpec`\\ s with unique names, IPs and (namespaced) mounts — the
controller deploys one :class:`~repro.replication.manager.
ReplicatedDeployment` per member.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.container.spec import ContainerSpec, ProcessSpec

__all__ = ["FleetSpec"]

#: Memory-mapped files per member process.
MAPPED_FILES = 6


@dataclass(frozen=True)
class FleetSpec:
    """A uniform fleet: *n_containers* members over an *n_hosts* pool."""

    n_containers: int = 12
    n_hosts: int = 6
    #: Container roles (primary or backup side of one member) a host can
    #: carry; total capacity must cover ``2 * n_containers``.
    slots_per_host: int = 8
    #: Placement strategy: ``packed`` / ``spread`` / ``random``.
    strategy: str = "spread"
    #: Replication strategy every member runs under (a pair-protocol name
    #: from :mod:`repro.replication.modes`: ``nilicon`` or ``hycor``).  The
    #: controller folds it into its config so reprotect/repair/migrate
    #: re-establish the same mode after every topology change.
    mode: str = "nilicon"
    #: Per-member heap size (kept small: fleet experiments multiply it).
    heap_pages: int = 64

    def member_names(self) -> list[str]:
        return [f"svc{i}" for i in range(self.n_containers)]

    def member_ip(self, index: int) -> str:
        # 10.0.2.x is reserved for fleet members (the single-pair tests use
        # 10.0.1.x and clients 10.0.0.x / 10.0.9.x).
        return f"10.0.{2 + index // 200}.{10 + index % 200}"

    def container_specs(self) -> list[ContainerSpec]:
        specs = []
        for index, name in enumerate(self.member_names()):
            specs.append(
                ContainerSpec(
                    name=name,
                    ip=self.member_ip(index),
                    processes=[
                        ProcessSpec(
                            comm=f"{name}-srv",
                            heap_pages=self.heap_pages,
                            n_mapped_files=MAPPED_FILES,
                        )
                    ],
                    # Every member mounts one namespaced data filesystem
                    # (exercises the per-container DRBD path at fleet scale).
                    mounts=[("/data", f"{name}-data")],
                    cgroup_attributes={"cpu.shares": 256},
                    n_cores=2,
                )
            )
        return specs

    def validate(self) -> None:
        capacity = self.n_hosts * self.slots_per_host
        if capacity < 2 * self.n_containers:
            raise ValueError(
                f"pool capacity {capacity} (hosts={self.n_hosts} x "
                f"slots={self.slots_per_host}) cannot hold "
                f"{self.n_containers} primary+backup pairs"
            )
