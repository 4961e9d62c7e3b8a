"""Engine-level fault-injection hook (the ``trace()`` of fault injection).

The replication protocol is threaded with *named injection points* —
``fault_point(engine, "primary.post_barrier", epoch=...)`` — exactly the
way it is threaded with :func:`repro.sim.trace.trace` calls.  When no plan
is armed the call reads two ``None`` attributes of the engine (the ftcov
recorder and the plan) and returns 0, so instrumented code paths cost
nothing in normal runs.

An armed plan (see :mod:`repro.faultinject.plan`, armed and disarmed only
by ``FaultPlan.arm``/``disarm``) is stored on the engine as
``engine.fault_plan``.  ``fault_point`` returns the number of simulated
microseconds the hooked process must stall (0 = continue immediately), and
may raise :class:`~repro.sim.engine.Interrupt` to kill the hooked process
in place — the mechanism behind "crash the primary exactly at phase X".

Link-level faults use the same registry: :meth:`Channel._transmit
<repro.net.link.Channel._transmit>` consults :func:`link_fault` before
scheduling a delivery, letting the plan drop, duplicate, delay or hold
individual protocol messages (acks, heartbeats, state, disk writes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Channel, Delivery, Endpoint
    from repro.sim.engine import Engine

__all__ = ["coverage_mark", "fault_point", "link_fault"]


def fault_point(engine: "Engine", name: str, **detail: Any) -> int:
    """Consult the armed fault plan at injection point *name*.

    Returns the stall (simulated µs) the caller must ``yield
    engine.timeout(...)`` for, or 0.  May raise ``Interrupt`` to fail-stop
    the calling process at exactly this point.  Cheap no-op when no plan
    is armed.
    """
    coverage_mark(engine, "point", name)
    plan = engine.fault_plan
    if plan is None:
        return 0
    return plan.on_point(name, detail)


def coverage_mark(engine: "Engine", kind: str, name: str) -> None:
    """Record reaching a recovery-path site for the ftcov dynamic oracle.

    Sites on failure-handling paths (recovery handlers, ``inject_*``
    entry points) carry this hook; the static inventory in
    :mod:`repro.analysis.ftcov` treats a hooked site as dynamically
    witnessed.  The recorder is ``engine._ftcov``: one attribute check
    when no recorder is armed — same zero-cost discipline as
    ``fault_point`` and the engine's observer slot.
    """
    rec = engine._ftcov
    if rec is not None:
        rec.record(kind, name)


def link_fault(
    engine: "Engine",
    channel: "Channel",
    dest: "Endpoint",
    delivery: "Delivery",
    delay_us: int,
) -> bool:
    """Consult the armed fault plan for one channel transmission.

    Returns True if the plan took over delivery scheduling (dropped, held,
    duplicated or re-timed the message); False means the channel should
    deliver normally.  Cheap no-op when no plan is armed.
    """
    plan = engine.fault_plan
    if plan is None:
        return False
    return plan.on_transmit(channel, dest, delivery, delay_us)
