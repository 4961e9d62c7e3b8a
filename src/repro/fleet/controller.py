"""The fleet controller: deploy, watch, re-protect, rebalance.

One :class:`FleetController` supervises many :class:`~repro.replication.
manager.ReplicatedDeployment`\\ s over a :class:`~repro.fleet.pool.
HostPool`.  Its control loop alternates a synchronous *scan* (read every
member's detectors and host liveness, decide state transitions) with an
asynchronous *converge* (drive each member's pending intent to done):

* **failover** — a member's backup restored its container; the old backup
  host is promoted to primary and a replacement backup is selected,
  allocated and resynced (``reprotect``).
* **backup loss** — the member's backup host fail-stopped while its
  primary is healthy; checkpointing is quiesced at an epoch boundary and
  the *running* container is adopted into a fresh pairing whose epoch
  numbering continues (``repair``).
* **pool exhaustion** — no replacement host has a free slot; the member
  runs *degraded* (unprotected but serving) and is re-protected
  automatically when capacity returns.
* **migration** — planned, output-commit-safe move of a member's primary
  to another pool host via CRIU live migration; an aborted migration
  (e.g. the migration link is cut) rolls back and re-protects in place.

Crash safety: every decision is persisted in the member's *intent* before
it takes effect, selection + slot allocation happen in one synchronous
step (no yield between them, so two concurrent failovers can never
double-book the same slot), and all the driving steps are idempotent — a
controller process killed mid-re-protection (``fleet.mid_reprotect``) is
restarted by its supervisor and converges without double-allocating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.container.runtime import Container, ContainerRuntime
from repro.container.spec import ContainerSpec
from repro.criu.migrate import LiveMigration, MigrationStats
from repro.fleet.metrics import FleetMetrics
from repro.fleet.placement import place, replacement_backup
from repro.fleet.pool import HostPool
from repro.fleet.spec import FleetSpec
from repro.net.host import Host
from repro.net.router import EndpointRouter
from repro.net.world import World
from repro.replication.config import NiliconConfig
from repro.replication.manager import ReplicatedDeployment
from repro.sim.access import record_access
from repro.sim.engine import Interrupt, Process
from repro.sim.faults import coverage_mark, fault_point
from repro.sim.trace import trace
from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.placement import PlacementDecision

__all__ = [
    "FleetController", "FleetMember", "MEMBER_EDGES", "MEMBER_STATES",
]

#: Control-loop period: one scan + converge pass per interval; the
#: supervisor checks the loop every two.
SCAN_INTERVAL_US = ms(10)
#: Longest a migration waits for buffered output to drain through the last
#: acknowledged barrier before it tears replication down.
MIGRATION_DRAIN_US = ms(500)

MEMBER_STATES = (
    "deploying",
    "protected",
    "reprotect_pending",
    "reprotecting",
    "repair_pending",
    "repairing",
    "degraded",
    "migrating",
    "dead",
)

#: The declared transition relation of the member state machine — the
#: contract the ftcov analyzer holds the scenario catalogs to.  Every
#: ``_set_state`` target must be the destination of a declared edge, and
#: every non-``backlog`` edge must be claimed (and dynamically driven) by
#: at least one fleet scenario.  ``deploying`` is the dataclass-initial
#: state and deliberately has no incoming edge: a member is constructed
#: deploying exactly once and never re-enters it.
MEMBER_EDGES = (
    ("deploying", "protected"),
    ("protected", "reprotect_pending"),
    ("reprotect_pending", "reprotecting"),
    ("reprotecting", "protected"),
    ("protected", "repair_pending"),
    ("repair_pending", "repairing"),
    ("repairing", "protected"),
    ("repair_pending", "degraded"),
    ("degraded", "repairing"),
    ("protected", "migrating"),
    ("migrating", "repair_pending"),
    ("protected", "dead"),
    ("reprotect_pending", "degraded"),
    ("degraded", "reprotecting"),
    ("reprotect_pending", "dead"),  # ft: backlog -- scenario: fleet.primary_lost_before_reprotect
    ("reprotecting", "dead"),  # ft: backlog -- scenario: fleet.primary_lost_mid_reprotect
    ("repair_pending", "dead"),  # ft: backlog -- scenario: fleet.primary_lost_before_repair
    ("repairing", "dead"),  # ft: backlog -- scenario: fleet.primary_lost_mid_repair
    ("degraded", "dead"),  # ft: backlog -- scenario: fleet.primary_lost_while_degraded
)


@dataclass
class FleetMember:
    """Bookkeeping for one replicated container under fleet management."""

    name: str
    spec: ContainerSpec
    state: str = "deploying"
    #: Host names (pool keys); backup is None while unprotected.
    primary: str | None = None
    backup: str | None = None
    #: The container currently serving this member (tracked explicitly:
    #: failovers and migrations replace the object).
    container: Container | None = None
    #: Current protection generation, plus every generation ever started —
    #: the metrics rollup and the split-brain oracle walk the history.
    deployment: ReplicatedDeployment | None = None
    deployments: list[ReplicatedDeployment] = field(default_factory=list)
    on_failover: Callable[[Container], None] | None = None
    #: Persisted decision the converge loop drives to completion; survives
    #: a controller crash (the member record is durable state, the control
    #: process is not).
    intent: dict[str, Any] | None = None
    failovers: int = 0
    reprotects: int = 0
    migrations: int = 0
    migration_aborts: int = 0
    migration_stats: list[MigrationStats] = field(default_factory=list)
    reprotect_latencies_us: list[int] = field(default_factory=list)
    reprotect_started_us: int | None = None
    degraded_since_us: int | None = None
    degraded_us: int = 0
    dead_reason: str | None = None


class FleetController:
    """Deploys and continuously re-protects a fleet of replicated
    containers over a host pool."""

    #: Orchestration layer; never part of any container checkpoint.
    __ckpt_ignore__ = True

    def __init__(
        self,
        world: World,
        pool: HostPool,
        fleet_spec: FleetSpec,
        config: NiliconConfig | None = None,
        seed: int = 0,
    ) -> None:
        fleet_spec.validate()
        self.world = world
        self.engine = world.engine
        self.pool = pool
        self.specs = fleet_spec.container_specs()
        self.strategy = fleet_spec.strategy
        self.config = config if config is not None else NiliconConfig.nilicon()
        # The fleet spec's replication mode wins: every deployment this
        # controller builds (deploy, reprotect, repair, migrate) derives
        # its strategy from self.config, so folding it in here is what
        # makes topology changes re-establish the same mode.
        if self.config.mode != fleet_spec.mode:
            self.config = self.config.with_(mode=fleet_spec.mode)
        self.seed = seed
        self.members: dict[str, FleetMember] = {}
        #: Per-member service re-attach hooks (run on failover/migration).
        self._service_attach: dict[str, Callable[[Container], None]] = {}
        #: Observers of member state transitions — ``fn(member, state)``
        #: called synchronously from :meth:`_set_state`.  The traffic
        #: proxy subscribes here so controller-known transitions (a member
        #: entering ``migrating`` or ``dead``) drive upstream draining
        #: without waiting a health-probe round trip.
        self.state_listeners: list[Callable[[str, str], None]] = []
        self.controller_restarts = 0
        self._stopped = False
        self._control_process: Process | None = None
        self._supervisor_process: Process | None = None

    # ------------------------------------------------------------------ #
    # Deployment                                                           #
    # ------------------------------------------------------------------ #
    def deploy(
        self, decisions: list["PlacementDecision"] | None = None
    ) -> list["PlacementDecision"]:
        """Place and start every member; returns the placement decisions.

        Pass *decisions* to pin the placement (scenario fixtures) instead
        of running the policy; the pinned slots are allocated here.
        """
        if decisions is None:
            names = [spec.name for spec in self.specs]
            decisions = place(self.pool, names, strategy=self.strategy,
                              seed=self.seed)
        else:
            for decision in decisions:
                self.pool.allocate(decision.member, "primary",
                                   self.pool.host(decision.primary))
                self.pool.allocate(decision.member, "backup",
                                   self.pool.host(decision.backup))
        for spec, decision in zip(self.specs, decisions):
            member = FleetMember(name=spec.name, spec=spec)
            member.on_failover = self._make_failover_cb(spec.name)
            self.members[spec.name] = member
            primary = self.pool.host(decision.primary)
            backup = self.pool.host(decision.backup)
            deployment = ReplicatedDeployment(
                self.world,
                spec,
                config=self.config,
                on_failover=member.on_failover,
                primary_host=primary,
                backup_host=backup,
                channel=self.pool.channel_between(primary, backup),
            )
            member.primary = decision.primary
            member.backup = decision.backup
            self._adopt_generation(member, deployment)
            self._set_state(member, "protected")
        for member in self.members.values():
            member.deployment.start()
        trace(self.engine, "fleet", "deployed", members=len(self.members),
              hosts=len(self.pool.hosts))
        return decisions

    def start(self) -> None:
        """Start the control loop and its supervisor."""
        self._control_process = self.engine.process(
            self._control_loop(), name="fleet-control"
        )
        self._supervisor_process = self.engine.process(
            self._supervise(), name="fleet-supervisor"
        )

    def stop(self) -> None:
        self._stopped = True
        for member in self.members.values():
            if member.deployment is not None and member.state in (
                "protected", "reprotecting", "repairing"
            ):
                member.deployment.stop()

    def register_service(
        self, name: str, attach: Callable[[Container], None]
    ) -> None:
        """Re-attach hook for the member's in-container service: called on
        the restored container after every failover and migration (the
        initial attach is the caller's job)."""
        self._service_attach[name] = attach

    def _make_failover_cb(self, name: str) -> Callable[[Container], None]:
        def on_failover(container: Container) -> None:
            attach = self._service_attach.get(name)
            if attach is not None:
                attach(container)

        return on_failover

    def _adopt_generation(
        self, member: FleetMember, deployment: ReplicatedDeployment
    ) -> None:
        member.deployment = deployment
        member.deployments.append(deployment)
        member.container = deployment.container

    def _set_state(self, member: FleetMember, state: str) -> None:
        assert state in MEMBER_STATES, state
        if member.state == state:
            # Idempotent re-entry: a restarted control loop resuming a
            # half-done reprotect/repair lands on the state it already
            # holds.  Not a transition — no trace event, no listener
            # notification, no self-edge in the coverage matrix.
            return
        # Member state is written by the control loop *and* by migration
        # processes; the access record makes any unsynchronized overlap a
        # race-detector finding instead of a silent corruption.
        record_access(self.engine, self, "member_state", "w", key=member.name,
                      site="fleet.set_state")
        # One coverage-matrix edge per real transition, for the ftcov
        # dynamic oracle (repro.analysis.ftreplay).
        coverage_mark(self.engine, "edge", f"{member.state}->{state}")
        member.state = state
        trace(self.engine, "fleet", "member_state", member=member.name,
              state=state)
        for listener in self.state_listeners:
            listener(member.name, state)

    # ------------------------------------------------------------------ #
    # Control loop                                                         #
    # ------------------------------------------------------------------ #
    def _control_loop(self) -> Generator[Any, Any, None]:
        try:
            while not self._stopped:  # ft: bounded -- stop() flips _stopped; each pass sleeps one scan interval
                yield self.engine.timeout(SCAN_INTERVAL_US)
                if self._stopped:
                    return
                self._scan()
                yield from self._converge()
        except Interrupt:
            # Killed (fault injection: the controller host crashed).  All
            # decisions live in member intents; the supervisor restarts us
            # and converge resumes idempotently.
            coverage_mark(self.engine, "handler", "fleet.control_interrupt")
            return

    def _supervise(self) -> Generator[Any, Any, None]:
        """Restart the control loop if it dies — the controller itself is
        fail-stop, and the fleet must survive its failures too."""
        while not self._stopped:  # ft: bounded -- stop() flips _stopped; each pass sleeps two scan intervals
            yield self.engine.timeout(SCAN_INTERVAL_US * 2)
            if self._stopped:
                return
            if self._control_process is None or not self._control_process.is_alive:
                self.controller_restarts += 1
                trace(self.engine, "fleet", "controller_restarted",
                      count=self.controller_restarts)
                self._control_process = self.engine.process(
                    self._control_loop(), name="fleet-control"
                )

    # -- scan: read detectors + host liveness, decide transitions -------- #
    def _scan(self) -> None:
        for name in sorted(self.members):
            member = self.members[name]
            if member.state in ("deploying", "migrating", "dead"):
                continue
            deployment = member.deployment
            primary_failed = (
                member.primary is not None
                and self.pool.host(member.primary).failed
            )
            backup_failed = (
                member.backup is not None
                and self.pool.host(member.backup).failed
            )
            if member.state == "protected":
                if (
                    deployment.failed_over
                    and deployment.restored_container is not None
                ):
                    if backup_failed:
                        # Restored onto a host that then also died.
                        self._kill_member(member, "restored host failed")
                        continue
                    self._begin_reprotect(member)
                elif primary_failed and backup_failed:
                    self._kill_member(member, "both hosts failed")
                elif backup_failed:
                    self._begin_repair(member)
                # primary_failed alone: the member's failure detector owns
                # that transition; we pick it up once failover completes.
            elif member.state in (
                "reprotect_pending", "reprotecting", "repair_pending",
                "repairing", "degraded",
            ):
                if primary_failed:
                    self._kill_member(member, "primary lost before re-protection")

    def _begin_reprotect(self, member: FleetMember) -> None:
        """Failover completed: the old backup host now runs the container."""
        member.failovers += 1
        # Latency is measured from the moment protection was lost — the
        # detector firing — not from this (later) scan tick.
        fired_at = member.deployment.backup_agent.detector.fired_at
        member.reprotect_started_us = (
            fired_at if fired_at is not None else self.engine.now
        )
        member.container = member.deployment.restored_container
        self.pool.release(member.name, "primary")
        self.pool.promote_backup(member.name)
        member.primary = member.backup
        member.backup = None
        member.intent = {"mode": "reprotect", "backup": None, "deployment": None}
        self._set_state(member, "reprotect_pending")
        trace(self.engine, "fleet", "failover_detected", member=member.name,
              new_primary=member.primary)

    def _begin_repair(self, member: FleetMember) -> None:
        """Backup host lost while the primary keeps serving."""
        member.reprotect_started_us = self.engine.now
        member.intent = {
            "mode": "repair", "backup": None, "deployment": None,
            "quiesced": False, "initial_epoch": None,
        }
        self._set_state(member, "repair_pending")
        trace(self.engine, "fleet", "backup_loss_detected", member=member.name,
              primary=member.primary)

    def _kill_member(self, member: FleetMember, reason: str) -> None:
        """The failure was not survivable (e.g. both hosts died inside one
        detection window): release its resources and record why."""
        member.dead_reason = reason
        member.intent = None
        if member.deployment is not None:
            member.deployment.heartbeat.stop()
            member.deployment.backup_agent.stop()
        self.pool.release(member.name, "primary")
        self.pool.release(member.name, "backup")
        self._clear_degraded(member)
        self._set_state(member, "dead")
        trace(self.engine, "fleet", "member_dead", member=member.name,
              reason=reason)

    # -- converge: drive every pending intent to done -------------------- #
    def _converge(self) -> Generator[Any, Any, None]:
        for name in sorted(self.members):
            member = self.members[name]
            if member.intent is None or member.state in ("dead", "migrating"):
                continue
            if member.intent.get("mode") == "reprotect":
                yield from self._drive_reprotect(member)
            elif member.intent.get("mode") == "repair":
                yield from self._drive_repair(member)

    def _select_backup(self, member: FleetMember) -> Generator[Any, Any, bool]:
        """Pick + allocate the replacement backup (idempotent; returns
        False when the pool is exhausted and the member was degraded)."""
        intent = member.intent
        if intent.get("backup") is not None:
            return True
        primary_host = self.pool.host(member.primary)
        candidate = replacement_backup(
            self.pool, member.name, primary_host,
            strategy=self.strategy, seed=self.seed,
        )
        if candidate is None:
            if member.state != "degraded":
                stall = fault_point(self.engine, "fleet.pool_exhausted",
                                    member=member.name)
                if stall:
                    yield self.engine.timeout(stall)
                self._mark_degraded(member)
            return False
        # Selection and allocation are one synchronous step — no yield in
        # between — so concurrent failovers converging in the same pass can
        # never double-book a slot.
        self.pool.allocate(member.name, "backup", candidate)
        intent["backup"] = candidate.name
        return True

    def _finish_repair_generation(
        self, member: FleetMember, deployment: ReplicatedDeployment
    ) -> None:
        deployment.start()
        self._adopt_generation(member, deployment)
        member.backup = member.intent["backup"]
        member.reprotects += 1
        if member.reprotect_started_us is not None:
            member.reprotect_latencies_us.append(
                self.engine.now - member.reprotect_started_us
            )
            member.reprotect_started_us = None
        member.intent = None
        self._set_state(member, "protected")
        trace(self.engine, "fleet", "reprotected", member=member.name,
              primary=member.primary, backup=member.backup)

    def _drive_reprotect(self, member: FleetMember) -> Generator[Any, Any, None]:
        stall = fault_point(self.engine, "fleet.pre_reprotect",
                            member=member.name)
        if stall:
            yield self.engine.timeout(stall)
        ok = yield from self._select_backup(member)
        if not ok:
            return
        if member.state == "degraded":
            self._clear_degraded(member)
        self._set_state(member, "reprotecting")
        # A kill here models the controller crashing after committing the
        # slot but before re-protection completed: the persisted intent
        # lets the restarted loop converge without double-allocating.
        stall = fault_point(self.engine, "fleet.mid_reprotect",
                            member=member.name)
        if stall:
            yield self.engine.timeout(stall)
        intent = member.intent
        if intent.get("deployment") is None:
            primary_host = self.pool.host(member.primary)
            backup_host = self.pool.host(intent["backup"])
            intent["deployment"] = member.deployment.reprotect(
                backup_host,
                channel=self.pool.channel_between(primary_host, backup_host),
            )
        self._finish_repair_generation(member, intent["deployment"])

    def _drive_repair(self, member: FleetMember) -> Generator[Any, Any, None]:
        intent = member.intent
        old = member.deployment
        if not intent.get("quiesced"):
            # Let the epoch loop finish its cycle (container ends thawed),
            # then dismantle the dead pairing.  The ack loop stays alive
            # through quiesce so in-flight acks keep draining barriers.
            yield from old.primary_agent.quiesce()
            old.heartbeat.stop()
            old.primary_agent.stop()
            old.backup_agent.stop()
            old.metrics.ended_at_us = self.engine.now
            self.pool.release(member.name, "backup")
            member.backup = None
            intent["quiesced"] = True
            intent["initial_epoch"] = old.primary_agent.epoch
        stall = fault_point(self.engine, "fleet.pre_reprotect",
                            member=member.name)
        if stall:
            yield self.engine.timeout(stall)
        ok = yield from self._select_backup(member)
        if not ok:
            return
        if member.state == "degraded":
            self._clear_degraded(member)
        self._set_state(member, "repairing")
        stall = fault_point(self.engine, "fleet.mid_reprotect",
                            member=member.name)
        if stall:
            yield self.engine.timeout(stall)
        if intent.get("deployment") is None:
            primary_host = self.pool.host(member.primary)
            backup_host = self.pool.host(intent["backup"])
            intent["deployment"] = ReplicatedDeployment(
                self.world,
                member.spec,
                config=old.config,
                on_failover=member.on_failover,
                primary_host=primary_host,
                backup_host=backup_host,
                channel=self.pool.channel_between(primary_host, backup_host),
                container=member.container,
                initial_epoch=intent["initial_epoch"],
            )
        self._finish_repair_generation(member, intent["deployment"])

    def _mark_degraded(self, member: FleetMember) -> None:
        member.degraded_since_us = self.engine.now
        self._set_state(member, "degraded")
        trace(self.engine, "fleet", "degraded", member=member.name)

    def _clear_degraded(self, member: FleetMember) -> None:
        if member.degraded_since_us is not None:
            member.degraded_us += self.engine.now - member.degraded_since_us
            member.degraded_since_us = None

    # ------------------------------------------------------------------ #
    # Fault injection                                                      #
    # ------------------------------------------------------------------ #
    def inject_host_failstop(self, host: Host) -> None:
        """Fail-stop a pool host with crash semantics for everything on it.

        Members whose *primary* lives here get the deployment-level
        fail-stop (container killed, heartbeats silenced — their detectors
        on the surviving backups take over).  Members whose *backup* lives
        here get that backup agent and its detector silenced: a dead host
        must never "detect" its primary and restore a second copy.
        """
        coverage_mark(self.engine, "inject", "fleet.host_failstop")
        host.fail_stop()
        for name in sorted(self.members):
            member = self.members[name]
            if member.deployment is None or member.state == "dead":
                continue
            if member.primary == host.name:
                member.deployment.inject_fail_stop()
            elif member.backup == host.name:
                member.deployment.backup_agent.stop()
        trace(self.engine, "fleet", "host_failstop", host=host.name)

    # ------------------------------------------------------------------ #
    # Live rebalancing                                                     #
    # ------------------------------------------------------------------ #
    def migrate_container(
        self,
        name: str,
        dest: Host,
        abort_timeout_us: int = ms(2000),
    ) -> Generator[Any, Any, MigrationStats | None]:
        """Move member *name*'s primary to *dest* (planned rebalancing).

        Output-commit-safe cutover: checkpointing is quiesced, buffered
        output drains through the last acknowledged barrier, replication
        tears down (detector first — a frozen container stops its cpuacct,
        so withheld heartbeats would otherwise fire the detector and
        restore a *second* copy mid-migration), unacknowledged output is
        dropped exactly as in failover (TCP retransmission from migrated
        socket state re-sends it), and the restored container's egress
        opens only after the new pairing's first checkpoint commits.

        Returns the migration stats, or None if the migration aborted
        (e.g. its link was cut) and the member was re-protected in place.
        """
        member = self.members[name]
        if member.state != "protected":
            raise RuntimeError(
                f"cannot migrate {name!r} in state {member.state!r}"
            )
        if dest.failed or self.pool.free_slots(dest.name) <= 0:
            raise RuntimeError(f"destination {dest.name} cannot take {name!r}")
        engine = self.engine
        old = member.deployment
        source = self.pool.host(member.primary)
        self._set_state(member, "migrating")
        stall = fault_point(engine, "fleet.pre_migrate", member=name)
        if stall:
            yield engine.timeout(stall)
        # Reserve the destination slot up front (the source slot stays
        # held until cutover succeeds, so an abort can roll straight back).
        self.pool.allocate(name, "primary-next", dest)
        # The window after the reservation commits but before cutover is
        # where a destination failure must abort cleanly: slot reserved,
        # replication still on the old pairing.
        stall = fault_point(engine, "fleet.post_reserve", member=name)
        if stall:
            yield engine.timeout(stall)

        # 1. Quiesce the epoch loop; the container keeps serving.
        yield from old.primary_agent.quiesce()
        # 2. Drain: let in-flight acks release already-committed output.
        plug = member.container.veth.egress_plug
        deadline = engine.now + MIGRATION_DRAIN_US
        while plug.barrier_epochs() and engine.now < deadline:
            yield engine.timeout(ms(5))
        # 3. Tear down replication — detector before heartbeat sender.
        old.backup_agent.stop()
        old.heartbeat.stop()
        old.primary_agent.stop()
        old.metrics.ended_at_us = engine.now
        # 4. Unacknowledged output dies with the pairing (failover rule).
        old.netbuffer.drop_unreleased_output()
        self.pool.release(name, "backup")
        member.backup = None
        initial_epoch = old.primary_agent.epoch

        channel = self.pool.channel_between(source, dest)
        source_end, dest_end = channel.ends_for(source, dest)
        source_port = EndpointRouter.attach(source_end, engine).port(
            f"{name}:migrate"
        )
        dest_port = EndpointRouter.attach(dest_end, engine).port(
            f"{name}:migrate"
        )
        dest_runtime = ContainerRuntime(dest.kernel, self.world.bridge)
        migration = LiveMigration(
            old.primary_runtime,
            dest_runtime,
            source_port,
            dest_port,
            config=self.config.criu,
            plug_egress_on_restore=True,
        )
        outcome: dict[str, Any] = {}

        def run_migration() -> Generator[Any, Any, None]:
            outcome["result"] = yield from migration.migrate(member.container)

        migration_process = engine.process(
            run_migration(), name=f"migrate-{name}"
        )
        yield engine.any_of([migration_process, engine.timeout(abort_timeout_us)])
        if "result" not in outcome:
            # Timed out — e.g. the migration link was cut mid-transfer.
            if migration_process.is_alive:
                migration_process.interrupt("migration-aborted")
            member.migration_aborts += 1
            self.pool.release(name, "primary-next")
            yield from self._rollback_migration(member, old)
            trace(engine, "fleet", "migration_aborted", member=name,
                  dest=dest.name)
            self._queue_post_migration_repair(member, initial_epoch)
            return None

        new_container, stats = outcome["result"]
        member.migrations += 1
        member.migration_stats.append(stats)
        member.container = new_container
        self.pool.release(name, "primary")
        self.pool.commit_role(name, "primary-next", "primary")
        member.primary = dest.name
        attach = self._service_attach.get(name)
        if attach is not None:
            attach(new_container)
        trace(engine, "fleet", "migrated", member=name, source=source.name,
              dest=dest.name, downtime_us=stats.downtime_us)
        self._queue_post_migration_repair(member, initial_epoch)
        return stats

    def _queue_post_migration_repair(
        self, member: FleetMember, initial_epoch: int
    ) -> None:
        """Hand the (now unprotected) member back to the control loop: the
        repair intent re-pairs it with epoch numbering continuing."""
        member.reprotect_started_us = self.engine.now
        member.intent = {
            "mode": "repair", "backup": None, "deployment": None,
            "quiesced": True, "initial_epoch": initial_epoch,
        }
        self._set_state(member, "repair_pending")

    def _rollback_migration(
        self, member: FleetMember, old: ReplicatedDeployment
    ) -> Generator[Any, Any, None]:
        """Undo an aborted migration: the source container resumes serving
        exactly where it was (re-registered, thawed, unplugged, bridged)."""
        container = old.container
        old.primary_runtime.containers[container.name] = container
        if container.frozen:
            yield from container.thaw()
        if container.veth.ingress_plug.plugged:
            container.veth.ingress_plug.unplug()
        if container.veth.bridge is None:
            port = self.world.bridge.attach(container.veth)
            self.world.bridge.gratuitous_arp(container.spec.ip, port)
        member.container = container

    # ------------------------------------------------------------------ #
    # Views / oracles                                                      #
    # ------------------------------------------------------------------ #
    def fleet_metrics(self) -> FleetMetrics:
        return FleetMetrics.collect(self)

    def live_primary_containers(self, name: str) -> list[Container]:
        """Every container across the member's generation history that
        could still be serving its address.  The split-brain oracle
        requires at most one (exactly one for non-dead members)."""
        member = self.members[name]
        seen: list[Container] = []
        candidates: list[Container] = []
        for deployment in member.deployments:
            candidates.append(deployment.container)
            restored = deployment.restored_container
            if restored is not None:
                candidates.append(restored)
        if member.container is not None:
            candidates.append(member.container)
        for container in candidates:
            if container in seen:
                continue
            seen.append(container)
        return [
            c for c in seen
            if not c.dead and not c.kernel.failed and c.veth.bridge is not None
        ]

    def audit(self) -> list[str]:
        """Fleet-wide invariant violations (empty = healthy run)."""
        problems = []
        for name in sorted(self.members):
            member = self.members[name]
            live = self.live_primary_containers(name)
            if member.state == "dead":
                if live:
                    problems.append(
                        f"{name}: dead member still has {len(live)} live "
                        f"container(s)"
                    )
                continue
            if len(live) > 1:
                problems.append(
                    f"{name}: split brain — {len(live)} live primaries"
                )
            for deployment in member.deployments:
                for violation in deployment.audit_output_commit():
                    problems.append(f"{name}: {violation}")
        return problems
