"""The injection-point registry.

Every named :func:`~repro.sim.faults.fault_point` site in the protocol is
declared here, with the protocol phase it interrupts.  The registry is the
single source of truth: scenario construction validates point names against
it, and the ftcov selfcheck (``repro ftcov selfcheck``, run by every
``repro lint``) proves that every registered point has a hook site
and that no hook site uses an unregistered name.
"""

from __future__ import annotations

__all__ = [
    "FAULT_POINTS",
    "FLEET_FAULT_POINTS",
    "LINK_MESSAGE_KINDS",
]

#: name -> description of the protocol window the point sits in.
FAULT_POINTS: dict[str, str] = {
    "primary.post_freeze": (
        "Container frozen, input not yet blocked; epoch barrier of the "
        "previous epoch is the newest in the egress queue."
    ),
    "primary.mid_collect": (
        "Input blocked and DRBD barrier sent; the CRIU collection window "
        "is open and the checkpoint image is being assembled."
    ),
    "primary.post_barrier": (
        "Epoch barrier inserted into the egress plug; this epoch's output "
        "is now fenced but its state has not been sent."
    ),
    "primary.pre_send": (
        "Checkpoint image complete, about to be streamed to the backup."
    ),
    "primary.between_send_and_receipt": (
        "State is on the wire; the backup has not yet acknowledged it."
    ),
    "backup.post_ack_pre_commit": (
        "Epoch state and disk writes fully received, commit not yet "
        "applied.  (Historically the ack had already been sent here — the "
        "ack-before-commit race this point was built to expose.)"
    ),
    "backup.mid_commit": (
        "Commit in flight: roughly half the epoch's pages are in the page "
        "store under an open checkpoint."
    ),
    "backup.mid_recover": (
        "Failover recovery in flight: uncommitted state discarded, CRIU "
        "images not yet materialized/restored."
    ),
    "hycor.mid_log_ship": (
        "HyCoR: a log flush's egress fence is inserted but the flush is "
        "not yet on the wire — a crash here strands fenced output behind "
        "a barrier the backup will never acknowledge."
    ),
    "hycor.log_gap": (
        "HyCoR failover: the shipped log has a sequence hole (a flush died "
        "with the primary or the link); the parked tail past the gap is "
        "about to be discarded — nothing in it was ever acknowledged."
    ),
    "hycor.replay_divergence": (
        "HyCoR failover: a stored flush failed digest re-verification "
        "during replay; promotion proceeds from the last flush that "
        "verifies."
    ),
}

#: Fleet-controller injection points (the control plane above the pair
#: protocol).  Kept in their own registry because pair scenarios cannot
#: reach controller decisions — the fleet scenarios arm these — while plan
#: validation and the ftcov hook-site check (which merge both) cover them.
FLEET_FAULT_POINTS: dict[str, str] = {
    "fleet.pre_reprotect": (
        "A failover completed and the controller is about to pick a "
        "replacement backup for the orphaned member."
    ),
    "fleet.mid_reprotect": (
        "Replacement backup chosen and its slot allocated; the new "
        "deployment has not been constructed/started yet.  A kill here is "
        "a controller crash mid-reprotect — the persisted member intent "
        "must let a restarted controller converge without double-allocating."
    ),
    "fleet.pool_exhausted": (
        "No alive host has a free slot for a replacement backup; the "
        "member is about to enter the degraded (running-unprotected) state."
    ),
    "fleet.pre_migrate": (
        "Planned rebalancing is about to quiesce replication and move a "
        "member's primary container to another host."
    ),
    "fleet.post_reserve": (
        "Migration destination slot reserved (primary-next) but cutover "
        "has not begun; replication still runs on the old pairing.  A "
        "destination failure here must abort the migration cleanly and "
        "release the reservation."
    ),
}

FAULT_POINTS.update(FLEET_FAULT_POINTS)

#: Message kinds a :class:`~repro.faultinject.plan.LinkFault` may target
#: (the ``kind`` field of every pair-channel message).
LINK_MESSAGE_KINDS = (
    "state", "ack", "heartbeat", "disk_write", "disk_barrier",
    # HyCoR-mode pair-channel traffic (repro.replication.hycor).
    "ndlog", "log_ack",
)
