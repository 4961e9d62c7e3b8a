"""The phase-fault scenario catalog: one cell per protocol window.

Where the §VII-A campaign injects fail-stop at *random* times, each
scenario here pins a fault to one named protocol phase (or one link-level
message race), so the narrow windows where the protocol could be wrong are
hit on *every* run.  The catalog covers every registered injection point
plus drop / duplicate / reorder / delay races on acks, state transfers and
heartbeats.

Scenarios fire at :data:`TARGET_EPOCH`, late enough that clients are
connected and steady-state traffic is flowing through the egress buffer
(the races need in-flight output to corrupt).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from repro.faultinject.actions import (
    corrupt_stored_flush,
    crash_primary,
    spurious_redetect,
)
from repro.faultinject.plan import FaultPlan, LinkFault, PointFault
from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.world import World
    from repro.replication.manager import ReplicatedDeployment

__all__ = ["SCENARIOS", "Scenario", "TARGET_EPOCH"]

#: Epoch the scenarios target (~`TARGET_EPOCH` * 31 ms into the run, with
#: clients attached and traffic flowing).
TARGET_EPOCH = 12

#: Stall long enough that failure detection (~90-120 ms after the primary
#: dies) completes while the stalled backup step is still in flight.
_STALL_US = ms(400)

#: Delay before the primary dies in the backup-side scenarios: long enough
#: for an already-sent ack (~50 µs wire latency) to reach the primary and
#: release output, short enough that no further epoch completes.
_ACK_WINDOW_US = 200


@dataclass(frozen=True)
class Scenario:
    """One campaign cell: a fault plan plus the expected outcome."""

    name: str
    description: str
    arm: Callable[["World", "ReplicatedDeployment"], FaultPlan]
    #: Whether the fault must end in a detected failover.
    expect_failover: bool = False
    #: Whether clients must stay error-free and make progress.  False only
    #: for faults outside the fail-stop model (e.g. a silently lost state
    #: transfer), where the oracle checks safety but not progress.
    expect_liveness: bool = True
    #: Injection points this scenario exercises (campaign coverage report).
    points: tuple[str, ...] = field(default=())
    #: Replication mode the cell deploys (``repro.replication.modes``); the
    #: ``hycor.*`` windows only exist under the hycor backend.
    mode: str = "nilicon"


def _crash_at(point: str) -> Callable[["World", "ReplicatedDeployment"], FaultPlan]:
    def arm(world: "World", deployment: "ReplicatedDeployment") -> FaultPlan:
        plan = FaultPlan(points=[
            PointFault(point, epoch=TARGET_EPOCH, kill=True,
                       action=crash_primary(deployment)),
        ])
        return plan.arm(world.engine)

    return arm


def _stall_backup_then_crash(
    point: str,
) -> Callable[["World", "ReplicatedDeployment"], FaultPlan]:
    def arm(world: "World", deployment: "ReplicatedDeployment") -> FaultPlan:
        plan = FaultPlan(points=[
            PointFault(point, epoch=TARGET_EPOCH, stall_us=_STALL_US,
                       action=crash_primary(deployment, after_us=_ACK_WINDOW_US)),
        ])
        return plan.arm(world.engine)

    return arm


def _redetect_mid_recover(world: "World", deployment: "ReplicatedDeployment") -> FaultPlan:
    plan = FaultPlan(points=[
        PointFault("primary.post_freeze", epoch=TARGET_EPOCH, kill=True,
                   action=crash_primary(deployment)),
        PointFault("backup.mid_recover",
                   action=spurious_redetect(deployment)),
    ])
    return plan.arm(world.engine)


def _link(*rules: LinkFault) -> Callable[["World", "ReplicatedDeployment"], FaultPlan]:
    def arm(world: "World", _deployment: "ReplicatedDeployment") -> FaultPlan:
        # Fresh copies per run: rules carry mutable match counters, and one
        # scenario is armed once per campaign cell.
        fresh = [replace(rule, seen=0, acted=0) for rule in rules]
        return FaultPlan(links=fresh).arm(world.engine)

    return arm


def _dup_ack_then_crash(world: "World", deployment: "ReplicatedDeployment") -> FaultPlan:
    # Duplicate the ack of epoch TARGET-1; hold the copy and deliver it
    # right after barrier TARGET is inserted — the exact window where a
    # pop-oldest release drains epoch TARGET's output with only TARGET-1
    # acknowledged.  Then kill the primary before epoch TARGET's state is
    # sent, so the premature release is externally visible (failover can
    # only restore TARGET-1).
    plan = FaultPlan(
        points=[
            PointFault("primary.pre_send", epoch=TARGET_EPOCH, kill=True,
                       action=crash_primary(deployment)),
        ],
        links=[
            LinkFault(kind="ack", epoch=TARGET_EPOCH - 1, mode="duplicate",
                      release_at_point="primary.post_barrier"),
        ],
    )
    return plan.arm(world.engine)


SCENARIOS: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> None:
    SCENARIOS[scenario.name] = scenario


# -- primary crashes pinned to each protocol phase --------------------------
for _point, _desc in (
    ("primary.post_freeze", "container frozen, input still open"),
    ("primary.mid_collect", "checkpoint collection in flight"),
    ("primary.post_barrier", "epoch barrier inserted, state unsent"),
    ("primary.pre_send", "image complete, transfer not started"),
    ("primary.between_send_and_receipt", "state on the wire, unacked"),
):
    _register(Scenario(
        name=f"crash@{_point}",
        description=f"Fail-stop the primary at epoch {TARGET_EPOCH}: {_desc}.",
        arm=_crash_at(_point),
        expect_failover=True,
        points=(_point,),
    ))

# -- backup-side races ------------------------------------------------------
_register(Scenario(
    name="crash@backup.post_ack_pre_commit",
    description=(
        "Stall the backup between full receipt and commit while the "
        "primary dies; recovery overlaps the uncommitted epoch.  Exposes "
        "the ack-before-commit race when acks precede commits."
    ),
    arm=_stall_backup_then_crash("backup.post_ack_pre_commit"),
    expect_failover=True,
    points=("backup.post_ack_pre_commit",),
))
_register(Scenario(
    name="crash@backup.mid_commit",
    description=(
        "Stall the backup halfway through storing an epoch's pages while "
        "the primary dies; recovery must roll the open checkpoint back "
        "and restore the last fully committed epoch."
    ),
    arm=_stall_backup_then_crash("backup.mid_commit"),
    expect_failover=True,
    points=("backup.mid_commit",),
))
_register(Scenario(
    name="redetect@backup.mid_recover",
    description=(
        "Fire the failure detector again while recovery is in flight; "
        "recovery must run exactly once."
    ),
    arm=_redetect_mid_recover,
    expect_failover=True,
    points=("primary.post_freeze", "backup.mid_recover"),
))

# -- link-level message races ----------------------------------------------
_register(Scenario(
    name="link.drop_ack",
    description=(
        f"Silently drop the ack of epoch {TARGET_EPOCH}; the next ack must "
        "release both epochs' output (cumulative-ack semantics)."
    ),
    arm=_link(LinkFault(kind="ack", epoch=TARGET_EPOCH, mode="drop")),
))
_register(Scenario(
    name="link.dup_ack",
    description=(
        f"Duplicate the ack of epoch {TARGET_EPOCH - 1}, delivering the "
        f"copy right after barrier {TARGET_EPOCH} is inserted, then crash "
        "the primary before that epoch's state is sent.  Exposes the "
        "pop-oldest-barrier release bug."
    ),
    arm=_dup_ack_then_crash,
    expect_failover=True,
    points=("primary.post_barrier", "primary.pre_send"),
))
_register(Scenario(
    name="link.reorder_ack",
    description=(
        f"Delay the ack of epoch {TARGET_EPOCH} past the next epoch's ack; "
        "the stale ack must release nothing twice."
    ),
    arm=_link(LinkFault(kind="ack", epoch=TARGET_EPOCH, mode="delay",
                        delay_us=ms(40))),
))
_register(Scenario(
    name="link.delay_ack",
    description="Add 10 ms to every ack; output release lags but stays correct.",
    arm=_link(LinkFault(kind="ack", mode="delay", delay_us=ms(10), count=None)),
))
_register(Scenario(
    name="link.drop_state",
    description=(
        f"Silently lose epoch {TARGET_EPOCH}'s state transfer (outside the "
        "fail-stop model: the real transport is reliable).  Commits stall, "
        "but nothing unacknowledged may escape — safety without liveness."
    ),
    arm=_link(LinkFault(kind="state", epoch=TARGET_EPOCH, mode="drop")),
    expect_liveness=False,
))
_register(Scenario(
    name="link.dup_state",
    description=(
        f"Deliver epoch {TARGET_EPOCH}'s state twice; the duplicate must "
        "be re-acked idempotently, not recommitted."
    ),
    arm=_link(LinkFault(kind="state", epoch=TARGET_EPOCH, mode="duplicate",
                        delay_us=ms(5))),
))
_register(Scenario(
    name="link.delay_state",
    description=(
        f"Delay epoch {TARGET_EPOCH}'s state past the next epoch's; the "
        "backup must stash the early arrival and commit strictly in order."
    ),
    arm=_link(LinkFault(kind="state", epoch=TARGET_EPOCH, mode="delay",
                        delay_us=ms(40))),
))
_register(Scenario(
    name="link.drop_heartbeat",
    description=(
        "Drop two consecutive heartbeats (below the 3-miss threshold); "
        "the detector must not fire."
    ),
    arm=_link(LinkFault(kind="heartbeat", mode="drop", at_match=5, count=2)),
))
_register(Scenario(
    name="link.delay_heartbeat",
    description=(
        "Add 10 ms to every heartbeat (sender and detector phase-offset); "
        "the detector must not fire."
    ),
    arm=_link(LinkFault(kind="heartbeat", mode="delay", delay_us=ms(10),
                        count=None)),
))


# -- HyCoR-mode scenarios ---------------------------------------------------
# Flush fences tick every LogShipper.FLUSH_US (3 ms), so flush
# ordinals ~= run time / 3 ms; these land between the clients' start
# (~120 ms) and the nilicon scenarios' TARGET_EPOCH crash (~epoch 12).
_FLUSH_TARGET = 120
#: The dropped flush for the log-gap cell; the primary is killed two
#: flushes later, inside the same epoch, so no checkpoint commit can
#: supersede (heal) the hole before failover.
_GAP_FLUSH = 118
#: First log_ack swallowed in the divergence cell: the release horizon
#: freezes here, so corrupting the *newest* stored flush (which replay then
#: refuses) can never lose output that was already released.
_ACK_FREEZE_MATCH = 110


def _crash_at_flush(at_hit: int) -> Callable[["World", "ReplicatedDeployment"], FaultPlan]:
    def arm(world: "World", deployment: "ReplicatedDeployment") -> FaultPlan:
        plan = FaultPlan(points=[
            PointFault("hycor.mid_log_ship", at_hit=at_hit, kill=True,
                       action=crash_primary(deployment)),
        ])
        return plan.arm(world.engine)

    return arm


def _gap_then_crash(world: "World", deployment: "ReplicatedDeployment") -> FaultPlan:
    plan = FaultPlan(
        points=[
            PointFault("hycor.mid_log_ship", at_hit=_GAP_FLUSH + 2, kill=True,
                       action=crash_primary(deployment)),
            PointFault("hycor.log_gap"),
        ],
        links=[LinkFault(kind="ndlog", mode="drop", at_match=_GAP_FLUSH)],
    )
    return plan.arm(world.engine)


def _corrupt_then_crash(world: "World", deployment: "ReplicatedDeployment") -> FaultPlan:
    plan = FaultPlan(
        points=[
            PointFault("primary.post_freeze", epoch=TARGET_EPOCH, kill=True,
                       action=crash_primary(deployment)),
            PointFault("backup.mid_recover",
                       action=corrupt_stored_flush(deployment)),
            PointFault("hycor.replay_divergence"),
        ],
        links=[LinkFault(kind="log_ack", mode="drop",
                         at_match=_ACK_FREEZE_MATCH, count=None)],
    )
    return plan.arm(world.engine)


_register(Scenario(
    name="crash@hycor.mid_log_ship",
    description=(
        f"HyCoR: fail-stop the primary at flush {_FLUSH_TARGET}, fence "
        "inserted but the flush not yet on the wire; the stranded window "
        "was never acknowledged, so failover replays only the durable "
        "prefix and loses nothing released."
    ),
    arm=_crash_at_flush(_FLUSH_TARGET),
    expect_failover=True,
    points=("hycor.mid_log_ship",),
    mode="hycor",
))
_register(Scenario(
    name="hycor.log-gap",
    description=(
        f"HyCoR: silently drop flush {_GAP_FLUSH}, kill the primary two "
        "flushes later.  The backup parked the post-gap tail un-acked; "
        "failover must detect the hole, discard the tail and promote from "
        "the consecutive durable prefix."
    ),
    arm=_gap_then_crash,
    expect_failover=True,
    points=("hycor.mid_log_ship", "hycor.log_gap"),
    mode="hycor",
))
_register(Scenario(
    name="hycor.replay-divergence",
    description=(
        "HyCoR: corrupt the newest stored flush at recovery start (durable "
        "log corruption, outside the fail-stop model) with log_acks "
        f"swallowed from match {_ACK_FREEZE_MATCH} so its output never "
        "escaped.  Replay must detect the digest mismatch and promote from "
        "the last flush that verifies."
    ),
    arm=_corrupt_then_crash,
    expect_failover=True,
    points=("primary.post_freeze", "backup.mid_recover",
            "hycor.replay_divergence"),
    mode="hycor",
))


#: Regression knob for the ftcov gate (the drop-scenario probe of
#: ``repro ftcov record``): the probe takes this scenario's runs out of
#: the merged counters.  It is the *only* one arming ``backup.mid_commit``
#: — so the coverage crossref must report that point as never fired, and
#: the FTC002 lint finding below stays frozen in ``lint-baseline.json``.
#: Two witnesses, one seeded gap, same discipline as
#: ``unsafe_unlogged_draw``.
UNSAFE_DROP_SCENARIO = "crash@backup.mid_commit"  # ft: unsafe -- ftcov drop-scenario knob; see docs/ftcov.md
