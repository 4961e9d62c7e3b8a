"""Deterministic fault plans: what to break, where, and exactly when.

A :class:`FaultPlan` is armed on the engine (``plan.arm(engine)``) and
consulted from two kinds of hook:

* **protocol points** — :func:`repro.sim.faults.fault_point` sites threaded
  through the primary/backup agents.  A matching :class:`PointFault` can
  stall the hooked process (returning a simulated-µs delay), run an action
  (e.g. fail-stop the primary host), or kill the hooked process in place by
  raising :class:`~repro.sim.engine.Interrupt`.
* **link transmissions** — :meth:`Channel._transmit
  <repro.net.link.Channel._transmit>` consults the plan per message.  A
  matching :class:`LinkFault` drops, duplicates or delays the delivery; a
  duplicate/delay can also be *held* and released when a named protocol
  point next fires, which pins link races to exact protocol phases instead
  of fragile wall-clock offsets.

Everything is deterministic: rules select their targets by message kind,
epoch and match ordinal — never by random draws or real time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.faultinject.points import FAULT_POINTS, LINK_MESSAGE_KINDS
from repro.sim.engine import Interrupt
from repro.sim.faults import coverage_mark

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Channel, Delivery, Endpoint
    from repro.sim.engine import Engine

__all__ = ["FaultPlan", "LinkFault", "PointFault"]


@dataclass
class PointFault:
    """One protocol-point rule; fires exactly once.

    *point* must be a registered injection point.  *epoch* filters on the
    hook's ``epoch`` detail (None = any).  *at_hit* selects the n-th
    matching occurrence (1-based).  When the rule fires it runs *action*
    (if any), contributes *stall_us* of simulated delay, and — if *kill*
    is set — fail-stops the hooked process via ``Interrupt``.
    """

    point: str
    epoch: int | None = None
    at_hit: int = 1
    stall_us: int = 0
    kill: bool = False
    action: Callable[["Engine"], None] | None = None
    hits: int = 0
    fired: bool = False

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; "
                f"registered: {sorted(FAULT_POINTS)}"
            )

    def matches(self, name: str, detail: dict[str, Any]) -> bool:
        if name != self.point:
            return False
        if self.epoch is not None and detail.get("epoch") != self.epoch:
            return False
        return True


@dataclass
class LinkFault:
    """One channel-message rule.

    *kind* selects messages by their ``kind`` field; *epoch* additionally
    filters on the message's ``epoch`` (None = any).  Of the matching
    transmissions, the rule acts on ordinals ``at_match .. at_match +
    count - 1`` (1-based; ``count=None`` = unbounded).

    Modes: ``drop`` swallows the delivery; ``delay`` postpones it by
    *delay_us* (reordering happens naturally when a later message overtakes
    it); ``duplicate`` delivers normally *and* schedules a copy *delay_us*
    later.  If *release_at_point* names a protocol point, the delayed
    message / duplicate copy is instead *held* and delivered the next time
    that point fires — a phase-pinned race.
    """

    kind: str
    mode: str  # "drop" | "duplicate" | "delay"
    epoch: int | None = None
    at_match: int = 1
    count: int | None = 1
    delay_us: int = 0
    release_at_point: str | None = None
    seen: int = 0
    acted: int = 0

    def __post_init__(self) -> None:
        if self.kind not in LINK_MESSAGE_KINDS:
            raise ValueError(
                f"unknown message kind {self.kind!r}; have {LINK_MESSAGE_KINDS}"
            )
        if self.mode not in ("drop", "duplicate", "delay"):
            raise ValueError(f"unknown link-fault mode {self.mode!r}")
        if self.release_at_point is not None and self.release_at_point not in FAULT_POINTS:
            raise ValueError(f"unknown release point {self.release_at_point!r}")

    def matches(self, message: Any) -> bool:
        if not isinstance(message, dict) or message.get("kind") != self.kind:
            return False
        if self.epoch is not None and message.get("epoch") != self.epoch:
            return False
        return True

    def active(self) -> bool:
        """Whether the current (just-counted) match ordinal should act."""
        if self.seen < self.at_match:
            return False
        return self.count is None or self.seen < self.at_match + self.count


@dataclass
class _Held:
    """A delivery parked until a protocol point fires."""

    channel: "Channel"
    dest: "Endpoint"
    delivery: "Delivery"
    release_point: str


class FaultPlan:
    """A set of point and link fault rules, armed on one engine."""

    def __init__(
        self,
        points: list[PointFault] | None = None,
        links: list[LinkFault] | None = None,
    ) -> None:
        self.points: list[PointFault] = list(points or ())
        self.links: list[LinkFault] = list(links or ())
        self._held: list[_Held] = []
        self._engine: "Engine | None" = None
        #: Human-readable record of everything the plan did (for reports
        #: and test assertions).
        self.log: list[str] = []

    # -- lifecycle --------------------------------------------------------
    def arm(self, engine: "Engine") -> "FaultPlan":
        self._engine = engine
        engine.fault_plan = self
        return self

    def disarm(self) -> None:
        if self._engine is not None and self._engine.fault_plan is self:
            self._engine.fault_plan = None
        self._engine = None

    @property
    def held_count(self) -> int:
        return len(self._held)

    # -- hook: protocol points --------------------------------------------
    def on_point(self, name: str, detail: dict[str, Any]) -> int:
        """Called from ``fault_point``; returns the stall in simulated µs.

        Raises ``Interrupt`` (after running actions and flushing held
        deliveries) when a matching rule asks to kill the hooked process.
        """
        engine = self._engine
        stall = 0
        kill = False
        for rule in self.points:
            if rule.fired or not rule.matches(name, detail):
                continue
            rule.hits += 1
            if rule.hits != rule.at_hit:
                continue
            rule.fired = True
            if engine is not None:
                coverage_mark(engine, "fired", name)
            self.log.append(
                f"t={engine.now if engine else '?'} point {name} {detail} -> "
                f"stall={rule.stall_us} kill={rule.kill} "
                f"action={'yes' if rule.action else 'no'}"
            )
            if rule.action is not None:
                rule.action(engine)
            stall += rule.stall_us
            kill = kill or rule.kill
        # Deliver any messages held for this point (phase-pinned races).
        for held in [h for h in self._held if h.release_point == name]:
            self._held.remove(held)
            if not held.channel.is_cut:
                self.log.append(
                    f"t={engine.now if engine else '?'} released held "
                    f"{_describe(held.delivery.message)} at {name}"
                )
                held.dest.rx.put(held.delivery)
        if kill:
            raise Interrupt(f"fault-injection kill at {name}")
        return stall

    # -- hook: link transmissions -----------------------------------------
    def on_transmit(
        self,
        channel: "Channel",
        dest: "Endpoint",
        delivery: "Delivery",
        delay_us: int,
    ) -> bool:
        """Called from ``Channel._transmit``.  Returns True when the plan
        took over delivery scheduling for this message."""
        for rule in self.links:
            if not rule.matches(delivery.message):
                continue
            rule.seen += 1
            if not rule.active():
                continue
            rule.acted += 1
            engine = channel.engine
            desc = _describe(delivery.message)
            if rule.mode == "drop":
                self.log.append(f"t={engine.now} dropped {desc}")
                return True
            if rule.mode == "delay":
                if rule.release_at_point is not None:
                    self.log.append(f"t={engine.now} held {desc} "
                                    f"until {rule.release_at_point}")
                    self._held.append(_Held(channel, dest, delivery, rule.release_at_point))
                else:
                    self.log.append(f"t={engine.now} delayed {desc} "
                                    f"by {rule.delay_us}us")
                    self._schedule(channel, dest, delivery, delay_us + rule.delay_us)
                return True
            # duplicate: original goes out on time, plus one copy.
            self._schedule(channel, dest, delivery, delay_us)
            if rule.release_at_point is not None:
                self.log.append(f"t={engine.now} duplicated {desc}; copy held "
                                f"until {rule.release_at_point}")
                self._held.append(_Held(channel, dest, delivery, rule.release_at_point))
            else:
                self.log.append(f"t={engine.now} duplicated {desc}; copy "
                                f"+{rule.delay_us}us")
                self._schedule(channel, dest, delivery, delay_us + rule.delay_us)
            return True
        return False

    @staticmethod
    def _schedule(
        channel: "Channel", dest: "Endpoint", delivery: "Delivery", delay_us: int
    ) -> None:
        if delay_us <= 0:
            channel.deliver(dest, delivery)
            return
        channel.engine.call_later(delay_us, channel.deliver, dest, delivery)


def _describe(message: Any) -> str:
    if isinstance(message, dict):
        kind = message.get("kind", "?")
        epoch = message.get("epoch")
        return f"{kind}" + (f"(epoch={epoch})" if epoch is not None else "")
    return repr(message)
