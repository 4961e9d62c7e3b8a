"""Unit tests for the fault-plan registry and its hooks."""

import pytest

from repro.faultinject.plan import FaultPlan, LinkFault, PointFault
from repro.net.link import Channel
from repro.sim.engine import Engine, Interrupt
from repro.sim.faults import fault_point, link_fault


def test_fault_point_is_noop_without_plan():
    engine = Engine()
    assert fault_point(engine, "primary.post_freeze", epoch=3) == 0


def test_unknown_point_name_rejected():
    with pytest.raises(ValueError, match="unknown fault point"):
        PointFault("primary.no_such_phase")


def test_unknown_link_kind_and_mode_rejected():
    with pytest.raises(ValueError, match="unknown message kind"):
        LinkFault(kind="gossip", mode="drop")
    with pytest.raises(ValueError, match="unknown link-fault mode"):
        LinkFault(kind="ack", mode="mangle")
    with pytest.raises(ValueError, match="unknown release point"):
        LinkFault(kind="ack", mode="delay", release_at_point="nowhere")


def test_point_rule_fires_once_at_matching_epoch():
    engine = Engine()
    rule = PointFault("primary.post_freeze", epoch=5, stall_us=123)
    plan = FaultPlan(points=[rule]).arm(engine)
    assert fault_point(engine, "primary.post_freeze", epoch=4) == 0
    assert fault_point(engine, "primary.mid_collect", epoch=5) == 0
    assert fault_point(engine, "primary.post_freeze", epoch=5) == 123
    # Exactly once: the same window on a later hit stays quiet.
    assert fault_point(engine, "primary.post_freeze", epoch=5) == 0
    assert rule.fired
    assert plan.log


def test_at_hit_selects_the_nth_occurrence():
    engine = Engine()
    rule = PointFault("backup.mid_commit", at_hit=3, stall_us=7)
    FaultPlan(points=[rule]).arm(engine)
    hits = [fault_point(engine, "backup.mid_commit", epoch=e) for e in range(5)]
    assert hits == [0, 0, 7, 0, 0]


def test_kill_raises_interrupt_after_action_runs():
    engine = Engine()
    ran = []
    rule = PointFault("primary.pre_send", kill=True, action=lambda _e: ran.append(1))
    FaultPlan(points=[rule]).arm(engine)
    with pytest.raises(Interrupt):
        fault_point(engine, "primary.pre_send", epoch=0)
    assert ran == [1]


def test_disarm_clears_the_plan():
    engine = Engine()
    plan = FaultPlan(points=[PointFault("primary.pre_send", stall_us=9)])
    plan.arm(engine)
    plan.disarm()
    assert engine.fault_plan is None
    assert fault_point(engine, "primary.pre_send") == 0


def _drain(engine):
    while engine.peek() is not None:
        engine.step()


def _recv_all(endpoint):
    got = [delivery.message for delivery in endpoint.rx.items]
    endpoint.rx._items.clear()
    return got


def test_link_drop_swallows_only_the_matching_message():
    engine = Engine()
    channel = Channel(engine)
    FaultPlan(links=[LinkFault(kind="ack", epoch=2, mode="drop")]).arm(engine)
    for epoch in range(4):
        channel.a.send({"kind": "ack", "epoch": epoch})
    _drain(engine)
    epochs = [m["epoch"] for m in _recv_all(channel.b)]
    assert epochs == [0, 1, 3]


def test_link_duplicate_delivers_copy_later():
    engine = Engine()
    channel = Channel(engine)
    FaultPlan(
        links=[LinkFault(kind="ack", epoch=1, mode="duplicate", delay_us=500)]
    ).arm(engine)
    channel.a.send({"kind": "ack", "epoch": 1})
    _drain(engine)
    epochs = [m["epoch"] for m in _recv_all(channel.b)]
    assert epochs == [1, 1]


def test_link_delay_reorders_past_later_message():
    engine = Engine()
    channel = Channel(engine)
    FaultPlan(
        links=[LinkFault(kind="state", epoch=1, mode="delay", delay_us=2000)]
    ).arm(engine)
    channel.a.send({"kind": "state", "epoch": 1})
    channel.a.send({"kind": "state", "epoch": 2})
    _drain(engine)
    epochs = [m["epoch"] for m in _recv_all(channel.b)]
    assert epochs == [2, 1]


def test_held_delivery_released_at_named_point():
    engine = Engine()
    channel = Channel(engine)
    plan = FaultPlan(
        links=[
            LinkFault(kind="ack", epoch=1, mode="delay",
                      release_at_point="primary.post_barrier"),
        ]
    ).arm(engine)
    channel.a.send({"kind": "ack", "epoch": 1})
    _drain(engine)
    assert _recv_all(channel.b) == []
    assert plan.held_count == 1
    fault_point(engine, "primary.post_barrier", epoch=2)
    assert plan.held_count == 0
    assert [m["epoch"] for m in _recv_all(channel.b)] == [1]


def test_held_delivery_not_released_on_cut_channel():
    engine = Engine()
    channel = Channel(engine)
    plan = FaultPlan(
        links=[
            LinkFault(kind="ack", epoch=1, mode="delay",
                      release_at_point="primary.post_barrier"),
        ]
    ).arm(engine)
    channel.a.send({"kind": "ack", "epoch": 1})
    _drain(engine)
    channel.cut()
    fault_point(engine, "primary.post_barrier", epoch=2)
    assert _recv_all(channel.b) == []


def test_link_rule_count_window():
    engine = Engine()
    channel = Channel(engine)
    FaultPlan(
        links=[LinkFault(kind="heartbeat", mode="drop", at_match=2, count=2)]
    ).arm(engine)
    for n in range(5):
        channel.a.send({"kind": "heartbeat", "n": n})
    _drain(engine)
    survivors = [m["n"] for m in _recv_all(channel.b)]
    assert survivors == [0, 3, 4]


def test_unarmed_channel_delivers_normally():
    engine = Engine()
    channel = Channel(engine)
    channel.a.send({"kind": "ack", "epoch": 0})
    _drain(engine)
    assert link_fault(engine, channel, channel.b, object(), 50) is False
    assert [m["epoch"] for m in _recv_all(channel.b)] == [0]
