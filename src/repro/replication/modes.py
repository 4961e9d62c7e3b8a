"""Pluggable replication strategy backends (the ``ReplicationMode`` registry).

Every deployment is built through this registry: a mode's :meth:`deploy`
factory returns the deployment object for a container spec, and
:func:`repro.experiments.common.build_deployment` does nothing but look the
mode up by name and call it.  :class:`~repro.replication.manager.ReplicatedDeployment`
is mode-agnostic: it asks the :class:`ReplicationMode` named by
``NiliconConfig.mode`` how to parameterize the network buffer and which
agent classes to construct.  Everything above the deployment — the fleet
controller, the experiment harnesses, the fault campaign — selects a
strategy purely by name, so re-protection after a failover, repair after a
backup loss and migration all re-establish whatever mode the config names.

Registered backends:

* ``stock``   — no replication; the plain-container baseline
  (:class:`repro.baselines.stock.StockDeployment`).
* ``nilicon`` — the paper's output-commit-per-epoch protocol (default).
* ``hycor``   — continuous nondeterminism-log shipping with log-commit
  release and backup-side replay (:mod:`repro.replication.hycor`).
* ``mc``      — the Remus/MC-style whole-VM baseline
  (:class:`repro.baselines.mc.McDeployment`, with the per-workload
  calibration in :data:`repro.baselines.mc.MC_PARAMS`).
* ``colo``    — COLO-style active replication, the §VIII comparison point
  (:class:`repro.baselines.colo.ColoDeployment`).

Only ``nilicon`` and ``hycor`` run the primary/backup pair protocol; the
baselines build their own deployment classes.  New modes register with
:func:`register_mode`; ``repro modes list`` renders this registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.replication.backup import BackupAgent
from repro.replication.primary import PrimaryAgent

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container
    from repro.container.spec import ContainerSpec
    from repro.net.world import World
    from repro.replication.config import NiliconConfig

__all__ = [
    "MODE_REGISTRY",
    "ReplicationMode",
    "get_mode",
    "mode_names",
    "register_mode",
]


class ReplicationMode:
    """One replication strategy: how a deployment buffers, fences and ships.

    :meth:`deploy` builds a deployment of this mode.  Pair-protocol modes
    override the three agent/buffer factory hooks that
    :class:`ReplicatedDeployment` calls; a mode with ``pair_protocol =
    False`` is a baseline whose :meth:`deploy` builds its own deployment
    class, and must never reach :class:`ReplicatedDeployment`.
    """

    #: Registry key (``NiliconConfig.mode`` / ``FleetSpec.mode`` value).
    name: str = ""
    #: One-line summary for ``repro modes list``.
    description: str = ""
    #: Whether deployments of this mode run the primary/backup pair
    #: protocol (False for the stock, MC and COLO baselines).
    pair_protocol: bool = True
    #: When external output escapes: ``immediate`` (no buffering),
    #: ``checkpoint-commit`` (NiLiCon), ``log-commit`` (HyCoR) or
    #: ``output-match`` (COLO: once both replicas produced it).
    release_rule: str = "checkpoint-commit"

    def deploy(
        self,
        world: "World",
        spec: "ContainerSpec",
        config: "NiliconConfig | None",
        on_failover: "Callable[[Container], None] | None",
    ):
        """Deploy *spec* in *world* under this mode.

        The config is made to name this mode, so reprotect/repair
        re-establish the same strategy; *on_failover* re-attaches the
        workload to the restored container.
        """
        from repro.replication.config import NiliconConfig
        from repro.replication.manager import ReplicatedDeployment

        if config is None:
            config = NiliconConfig.nilicon()
        if config.mode != self.name:
            config = config.with_(mode=self.name)
        return ReplicatedDeployment(world, spec, config=config, on_failover=on_failover)

    def netbuffer_kwargs(
        self, config: "NiliconConfig", container: "Container", initial_epoch: int
    ) -> dict:
        """Constructor kwargs for the deployment's ``NetworkBuffer``."""
        return {
            "input_block": config.input_block,
            "release_oldest": config.unsafe_release_oldest_barrier,
            "initial_epoch": initial_epoch,
        }

    def make_primary_agent(self, **kwargs) -> PrimaryAgent:
        return PrimaryAgent(**kwargs)

    def make_backup_agent(self, primary_container: "Container | None" = None,
                          **kwargs) -> BackupAgent:
        """Build the backup agent; *primary_container* lets a mode read
        adoption state off the protected container (HyCoR's flush horizon)."""
        return BackupAgent(**kwargs)


MODE_REGISTRY: dict[str, ReplicationMode] = {}


def register_mode(mode: ReplicationMode) -> ReplicationMode:
    MODE_REGISTRY[mode.name] = mode
    return mode


def get_mode(name: str) -> ReplicationMode:
    try:
        return MODE_REGISTRY[name]
    except KeyError:  # ft: defensive -- config validation; unknown mode names fail fast at deployment build
        raise ValueError(
            f"unknown mode {name!r}; registered strategies: {mode_names()}"
        ) from None


def mode_names() -> list[str]:
    return list(MODE_REGISTRY)


class StockMode(ReplicationMode):
    name = "stock"
    description = "No replication: plain container, output escapes immediately."
    pair_protocol = False
    release_rule = "immediate"

    def deploy(self, world, spec, config, on_failover):
        from repro.baselines.stock import StockDeployment

        return StockDeployment(world, spec)


class NiliconMode(ReplicationMode):
    name = "nilicon"
    description = (
        "Output commit per checkpoint epoch: egress fenced at every "
        "checkpoint, released on the backup's post-commit ack (the paper's "
        "protocol)."
    )


class HycorMode(ReplicationMode):
    name = "hycor"
    description = (
        "Continuous nondeterminism-log shipping: egress fenced per log "
        "flush, released on log commit; failover replays the shipped tail "
        "through the restored checkpoint before promoting."
    )
    release_rule = "log-commit"

    def netbuffer_kwargs(
        self, config: "NiliconConfig", container: "Container", initial_epoch: int
    ) -> dict:
        from repro.replication.hycor import hycor_flush_seq

        # Barriers are flush-sequence fences: the ledger floor and acked
        # watermark continue the adopted container's flush numbering (a
        # fresh container starts at flush 1), asserting against the
        # backup's log-commit ledger instead of its epoch commits.
        start_seq = hycor_flush_seq(container)
        return {
            "input_block": config.input_block,
            "release_oldest": config.unsafe_release_oldest_barrier,
            "initial_epoch": start_seq + 1,
            "commit_ledger_kind": "log_commit",
        }

    def make_primary_agent(self, **kwargs) -> PrimaryAgent:
        from repro.replication.hycor import HycorPrimaryAgent

        return HycorPrimaryAgent(**kwargs)

    def make_backup_agent(self, primary_container: "Container | None" = None,
                          **kwargs) -> BackupAgent:
        from repro.replication.hycor import HycorBackupAgent, hycor_flush_seq

        start_seq = 0 if primary_container is None else hycor_flush_seq(primary_container)
        return HycorBackupAgent(initial_log_seq=start_seq, **kwargs)


class McMode(ReplicationMode):
    name = "mc"
    description = (
        "Remus/MC-style whole-VM epoch replication baseline (write-protect "
        "dirty tracking; own deployment class)."
    )
    pair_protocol = False

    def deploy(self, world, spec, config, on_failover):
        from repro.baselines.mc import MC_PARAMS, McDeployment

        return McDeployment(world, spec, **MC_PARAMS.get(spec.name, {}))


class ColoMode(ReplicationMode):
    name = "colo"
    description = (
        "COLO-style active replication baseline: a full replica on the "
        "backup executes forwarded inputs; output escapes once both "
        "replicas produced it (own deployment class)."
    )
    pair_protocol = False
    release_rule = "output-match"

    def deploy(self, world, spec, config, on_failover):
        from repro.baselines.colo import ColoDeployment

        return ColoDeployment(world, spec, attach_workload=on_failover)


register_mode(StockMode())
register_mode(NiliconMode())
register_mode(HycorMode())
register_mode(McMode())
register_mode(ColoMode())
