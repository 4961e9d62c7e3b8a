"""Deployment orchestration: wire a full NiLiCon pair together.

:class:`ReplicatedDeployment` assembles what §IV's architecture figure
shows: the protected container and keep-alive on the primary, primary and
backup agents, network buffering, DRBD pairs for every mounted filesystem,
the heartbeat sender and failure detector — and provides the fault
injection used by the paper's validation (§VII-A): fail-stop emulated by
silencing all the primary's network interfaces.

Beyond the paper, :meth:`ReplicatedDeployment.reprotect` re-establishes
protection after a failover: the restored container (now the de-facto
primary on the old backup host) is adopted into a fresh deployment against
a replacement backup host, so the service survives *chains* of failures —
the "nine lives" the system is named for.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from repro.container.runtime import Container, ContainerRuntime
from repro.container.spec import ContainerSpec
from repro.metrics.collector import RunMetrics
from repro.net.host import Host
from repro.net.link import Channel
from repro.net.world import World
from repro.replication.config import NiliconConfig
from repro.replication.drbd import BackupDrbd, PrimaryDrbd
from repro.replication.heartbeat import HeartbeatSender
from repro.replication.modes import get_mode
from repro.replication.netbuffer import NetworkBuffer
from repro.sim.faults import coverage_mark

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.auditor import StateAuditor

__all__ = ["ReplicatedDeployment", "scoped_fs_name"]


def scoped_fs_name(spec_name: str, fs_name: str) -> str:
    """Host-kernel filesystem key for *fs_name* mounted by *spec_name*.

    Storage is namespaced per container: two containers on the same host
    pair mounting the same fs name must get *distinct* disks (they used to
    silently share one, because devices were keyed by ``fs_name`` alone).
    Idempotent, so re-scoping an already-scoped spec (adoption after a
    failover or migration) is a no-op.
    """
    prefix = f"{spec_name}:"
    return fs_name if fs_name.startswith(prefix) else f"{prefix}{fs_name}"


class ReplicatedDeployment:
    """One replicated container across a primary/backup host pair."""

    def __init__(
        self,
        world: World,
        spec: ContainerSpec,
        config: NiliconConfig | None = None,
        on_failover: Callable[[Container], None] | None = None,
        primary_host: Host | None = None,
        backup_host: Host | None = None,
        channel: Channel | None = None,
        container: Container | None = None,
        initial_epoch: int = 0,
    ) -> None:
        """Deploy *spec* replicated from *primary_host* to *backup_host*.

        Defaults to the world's standard pair and creates the container;
        pass *container* (plus hosts/channel) to adopt an already-running
        container instead — the re-protection path after a failover.

        *initial_epoch* continues an adopted container's epoch numbering
        (re-pairing after a backup-host loss, or after a migration): the
        primary's first checkpoint is epoch *initial_epoch* and the backup
        expects exactly it.  The stale egress barriers the adopted
        container may still hold (epochs its dead backup never acked) then
        drain on the first new ack — only once the new full checkpoint,
        which supersedes them, is durable.
        """
        self.world = world
        # Namespace every mount's backing filesystem by container, so the
        # same fs name in two specs maps to two distinct disks.
        scoped_mounts = [
            (mountpoint, scoped_fs_name(spec.name, fs_name))
            for mountpoint, fs_name in spec.mounts
        ]
        if scoped_mounts != spec.mounts:
            spec = replace(spec, mounts=scoped_mounts)
        self.spec = spec
        self.initial_epoch = initial_epoch
        self.config = config if config is not None else NiliconConfig.nilicon()
        #: The replication strategy backend this pairing runs.  Resolved
        #: from the config by name, so reprotect/repair/migrate (which pass
        #: the config along) re-establish the same mode automatically.
        self.mode = get_mode(self.config.mode)
        if not self.mode.pair_protocol:
            raise ValueError(
                f"replication mode {self.config.mode!r} does not run the "
                "pair protocol; build it via "
                "repro.experiments.common.build_deployment"
            )
        self.on_failover = on_failover
        self.metrics = RunMetrics()
        self.primary_host = primary_host if primary_host is not None else world.primary
        self.backup_host = backup_host if backup_host is not None else world.backup

        engine = world.engine
        costs = world.costs
        if channel is None:
            channel = world.pair_channel
        self.channel = channel
        # Route the shared pair link per container, so any number of
        # replicated containers coexist on one host pair (multi-tenancy).
        from repro.net.router import EndpointRouter

        primary_end, backup_end = channel.ends_for(self.primary_host, self.backup_host)
        primary_endpoint = EndpointRouter.attach(primary_end, engine).port(spec.name)
        backup_endpoint = EndpointRouter.attach(backup_end, engine).port(spec.name)

        # -- storage: identical disks on both hosts, DRBD pair per mount ----
        self.primary_drbd: list[PrimaryDrbd] = []
        self.backup_drbd: list[BackupDrbd] = []
        for disk_index, (_mountpoint, fs_name) in enumerate(spec.mounts):
            dev_name = f"drbd-{fs_name}"
            if fs_name not in self.primary_host.kernel.filesystems:
                primary_dev = self.primary_host.kernel.add_block_device(dev_name)
                self.primary_host.kernel.mkfs(dev_name, fs_name)
            else:
                primary_dev = self.primary_host.kernel.filesystems[fs_name].device
            if fs_name not in self.backup_host.kernel.filesystems:
                backup_dev = self.backup_host.kernel.add_block_device(dev_name)
                self.backup_host.kernel.mkfs(dev_name, fs_name)
            else:
                backup_dev = self.backup_host.kernel.filesystems[fs_name].device
            # Initial full resync: DRBD brings a fresh backup disk to the
            # primary's current content before incremental mirroring starts.
            backup_dev.load_snapshot(primary_dev.snapshot())
            self.primary_drbd.append(PrimaryDrbd(primary_dev, primary_endpoint, disk_index))
            self.backup_drbd.append(BackupDrbd(engine, backup_dev))

        # -- primary side -----------------------------------------------------
        self.primary_runtime = ContainerRuntime(self.primary_host.kernel, world.bridge)
        if container is None:
            self.container = self.primary_runtime.create(spec)
        else:
            # Adoption: the container already runs on the primary host.
            assert container.kernel is self.primary_host.kernel, (
                "adopted container must live on the primary host"
            )
            self.container = container
            self.primary_runtime.containers[spec.name] = container
        self.container.start_keepalive(self.config.heartbeat_interval_us)
        #: Runtime invariant checks at epoch/restore boundaries (opt-in).
        self.auditor: StateAuditor | None = None
        if self.config.audit:
            from repro.analysis.auditor import StateAuditor

            self.auditor = StateAuditor()
            self.auditor.attach_container(self.container)
        self.netbuffer = NetworkBuffer(
            engine,
            costs,
            self.container,
            **self.mode.netbuffer_kwargs(self.config, self.container, initial_epoch),
        )
        self.primary_agent = self.mode.make_primary_agent(
            container=self.container,
            endpoint=primary_endpoint,
            config=self.config,
            netbuffer=self.netbuffer,
            drbd=self.primary_drbd,
            metrics=self.metrics,
            auditor=self.auditor,
            initial_epoch=initial_epoch,
        )
        self.heartbeat = HeartbeatSender(
            engine,
            primary_endpoint,
            read_cpuacct=self.container.cgroup.read_cpuacct,
            interval_us=self.config.heartbeat_interval_us,
        )

        # -- backup side --------------------------------------------------------
        self.backup_runtime = ContainerRuntime(self.backup_host.kernel, world.bridge)
        self.backup_agent = self.mode.make_backup_agent(
            primary_container=self.container,
            engine=engine,
            runtime=self.backup_runtime,
            endpoint=backup_endpoint,
            config=self.config,
            spec=spec,
            bridge=world.bridge,
            drbd=self.backup_drbd,
            metrics=self.metrics,
            on_failover=on_failover,
            auditor=self.auditor,
            initial_epoch=initial_epoch,
        )

        self._started = False
        self._failed_stop = False

    # ------------------------------------------------------------------ #
    # Lifecycle                                                            #
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Begin replication: agents, heartbeats, detector."""
        if self._started:
            return
        self._started = True
        self.backup_agent.start()
        self.primary_agent.start()
        self.heartbeat.start()

    def stop(self) -> None:
        """Cleanly stop replication (experiment teardown, no failover)."""
        self.heartbeat.stop()
        self.primary_agent.stop()
        self.backup_agent.stop()
        self.metrics.ended_at_us = self.world.engine.now

    # ------------------------------------------------------------------ #
    # Fault injection (SSVII-A)                                            #
    # ------------------------------------------------------------------ #
    def inject_fail_stop(self) -> None:
        """Emulate a fail-stop primary failure.

        As in the paper, failure is emulated by blocking all traffic on the
        primary's interfaces: the pair channel goes silent (heartbeats stop
        reaching the detector) and the container's veth is cut.  The
        primary's processes also stop executing (crash semantics).
        Idempotent: a second injection (e.g. a fault action racing a
        scripted one) is a no-op — a host can only die once.
        """
        if self._failed_stop:
            return
        self._failed_stop = True
        coverage_mark(self.world.engine, "inject", "replication.fail_stop")
        self.primary_host.fail_stop()
        self.channel.cut()
        self.container.kill()
        self.heartbeat.stop()
        self.primary_agent.crash()
        self.metrics.ended_at_us = self.world.engine.now

    # ------------------------------------------------------------------ #
    # Re-protection (beyond the paper: survive the *next* failure too)     #
    # ------------------------------------------------------------------ #
    def reprotect(
        self,
        new_backup_host: Host,
        config: NiliconConfig | None = None,
        on_failover: Callable[[Container], None] | None = None,
        channel: Channel | None = None,
    ) -> "ReplicatedDeployment":
        """After a failover, protect the restored container again.

        The restored container on the old backup host becomes the primary
        of a fresh deployment whose backup is *new_backup_host*; call
        ``start()`` on the returned deployment to resume replication.
        Pass *channel* to reuse a provisioned (possibly shared) pair link —
        the fleet's host pool does — instead of connecting a fresh one.
        """
        if not self.failed_over or self.restored_container is None:
            raise RuntimeError("reprotect() requires a completed failover")
        if channel is None:
            channel = self.world.connect_pair(self.backup_host, new_backup_host)
        return ReplicatedDeployment(
            self.world,
            self.spec,
            config=config if config is not None else self.config,
            on_failover=on_failover if on_failover is not None else self.on_failover,
            primary_host=self.backup_host,
            backup_host=new_backup_host,
            channel=channel,
            container=self.restored_container,
        )

    # ------------------------------------------------------------------ #
    # Views                                                                #
    # ------------------------------------------------------------------ #
    @property
    def restored_container(self) -> Container | None:
        return self.backup_agent.restored_container

    @property
    def failed_over(self) -> bool:
        return self.backup_agent.failed_over

    def audit_output_commit(self) -> list[str]:
        return self.netbuffer.audit_output_commit()
