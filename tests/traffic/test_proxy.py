"""L7 proxy unit tests: routing, draining, eviction, zero-drop retry."""

from typing import Any, Generator

import pytest

from repro.fleet import FleetController, FleetSpec, FleetWorkload, HostPool
from repro.kernel.tcp import TcpStack
from repro.kernel.netdev import NetDevice
from repro.net import World
from repro.replication import NiliconConfig
from repro.sim.units import ms, sec
from repro.traffic.proxy import (
    PROBES_TO_EVICT, REPLY_BYTES, REQUEST_BYTES, TrafficProxy,
)

SMALL_FLEET = FleetSpec(n_containers=3, n_hosts=3, slots_per_host=8)


@pytest.fixture
def world():
    return World(seed=7)


def build_proxied_fleet(world: World, fleet_spec: FleetSpec = SMALL_FLEET):
    pool = HostPool(world, fleet_spec.n_hosts,
                    slots_per_host=fleet_spec.slots_per_host)
    controller = FleetController(
        world, pool, fleet_spec=fleet_spec,
        config=NiliconConfig.nilicon(), seed=7,
    )
    controller.deploy()
    workload = FleetWorkload(world, controller)
    workload.attach_services()
    controller.start()
    proxy = TrafficProxy(world, controller)
    proxy.start()
    return pool, controller, workload, proxy


def make_session_stack(world: World, index: int = 0) -> TcpStack:
    ip = f"10.0.8.{200 + index}"
    stack = TcpStack(world.engine, world.costs, ip, name=f"test-sess{index}")
    device = NetDevice(f"test-sess{index}-eth0", ip, f"ae:{index:02x}",
                       world.engine)
    stack.attach_device(device)
    world.bridge.attach(device)
    return stack


def run_session(world: World, proxy: TrafficProxy, results: list,
                n_requests: int = 3, start_at_us: int = ms(300),
                gap_us: int = ms(40), index: int = 0) -> None:
    """A keep-alive client session; appends each validated reply."""
    stack = make_session_stack(world, index)

    def session() -> Generator[Any, Any, None]:
        yield world.engine.timeout(start_at_us)
        sock = stack.socket()
        yield sock.connect(proxy.ip, proxy.port)
        for r in range(n_requests):
            sock.send(f"R{index:03d}{r:04d}".encode()[:REQUEST_BYTES])
            reply = b""
            while len(reply) < REPLY_BYTES:
                chunk = yield sock.recv(REPLY_BYTES - len(reply))
                assert chunk != b""
                reply += chunk
            results.append(reply)
            yield world.engine.timeout(gap_us)
        sock.close()

    world.engine.process(session(), name=f"test-session-{index}")


def test_keep_alive_session_relays_and_sticks(world):
    _pool, controller, _workload, proxy = build_proxied_fleet(world)
    results: list[bytes] = []
    run_session(world, proxy, results, n_requests=4)
    world.run(until=sec(2))
    controller.stop()
    assert len(results) == 4
    assert all(r.startswith(b"PONG") for r in results)
    # Keep-alive affinity: one session's requests all hit one member, and
    # its counter sequence is strictly increasing.
    counts = [int(r[4:]) for r in results]
    assert counts == sorted(counts)
    assert proxy.counters.routed == proxy.counters.relayed + proxy.inflight()
    assert proxy.counters.dropped == 0


def test_many_sessions_spread_over_members(world):
    _pool, controller, _workload, proxy = build_proxied_fleet(world)
    results: list[bytes] = []
    for i in range(6):
        run_session(world, proxy, results, n_requests=2, index=i,
                    start_at_us=ms(300) + i * ms(7))
    world.run(until=sec(2))
    controller.stop()
    assert len(results) == 12
    # Round-robin assignment reaches every member.
    routed_members = {
        m for m, n in proxy.counters.per_member_routed.items() if n > 0
    }
    assert routed_members == set(controller.members)


def test_drain_stops_new_routing_and_runs_dry(world):
    _pool, controller, _workload, proxy = build_proxied_fleet(world)
    member = sorted(controller.members)[0]
    results: list[bytes] = []
    for i in range(4):
        run_session(world, proxy, results, n_requests=4, index=i)
    drained: list[bool] = []

    def drain_timeline() -> Generator[Any, Any, None]:
        yield world.engine.timeout(ms(500))
        done = yield from proxy.drain(member)
        drained.append(done)
        routed_before = proxy.counters.per_member_routed.get(member, 0)
        yield world.engine.timeout(ms(400))
        # While draining no new request may be routed to the member.
        assert proxy.counters.per_member_routed.get(member, 0) == routed_before
        proxy.undrain(member)

    world.engine.process(drain_timeline(), name="drain-timeline")
    world.run(until=sec(3))
    controller.stop()
    assert drained == [True]
    assert proxy.upstreams[member].inflight() == 0
    assert len(results) == 16
    assert proxy.counters.drains == 1


def test_controller_migrating_state_begins_drain(world):
    _pool, controller, _workload, proxy = build_proxied_fleet(world)
    member = sorted(controller.members)[0]
    controller._set_state(controller.members[member], "migrating")
    assert proxy.upstreams[member].draining
    controller._set_state(controller.members[member], "protected")
    assert not proxy.upstreams[member].draining


def test_controller_dead_state_evicts(world):
    _pool, controller, _workload, proxy = build_proxied_fleet(world)
    member = sorted(controller.members)[0]
    controller._set_state(controller.members[member], "dead")
    upstream = proxy.upstreams[member]
    assert upstream.dead
    assert not upstream.routable
    assert proxy.counters.evictions == 1
    # The router never picks the dead member.
    for _ in range(10):
        assert proxy._route(member) != member


def test_probe_eviction_and_readmission_on_silent_member(world):
    """Members that answer nothing (no service attached — no fail-stop, so
    the controller never signals) must be evicted by probe timeouts alone,
    then readmitted once the service comes up and probes reply."""
    pool = HostPool(world, SMALL_FLEET.n_hosts,
                    slots_per_host=SMALL_FLEET.slots_per_host)
    controller = FleetController(
        world, pool, fleet_spec=SMALL_FLEET,
        config=NiliconConfig.nilicon(), seed=7,
    )
    controller.deploy()
    workload = FleetWorkload(world, controller)
    controller.start()
    proxy = TrafficProxy(world, controller)
    proxy.start()

    def attach_late() -> Generator[Any, Any, None]:
        yield world.engine.timeout(ms(2500))
        workload.attach_services()

    world.engine.process(attach_late(), name="attach-late")
    world.run(until=sec(6))
    controller.stop()
    assert proxy.counters.probe_misses >= PROBES_TO_EVICT
    assert proxy.counters.evictions >= len(controller.members)
    assert proxy.counters.readmissions >= len(controller.members)
    assert all(u.healthy for u in proxy.upstreams.values())


def test_failstop_transparent_to_inflight_requests(world):
    """A host fail-stop mid-session: TCP repair carries the proxy's
    upstream connections to the promoted backup, replies keep flowing,
    and the count sequence stays monotonic (zero drops)."""
    pool, controller, _workload, proxy = build_proxied_fleet(world)
    results: list[bytes] = []
    for i in range(3):
        run_session(world, proxy, results, n_requests=5, index=i,
                    gap_us=ms(120))

    def failstop() -> Generator[Any, Any, None]:
        yield world.engine.timeout(ms(600))
        controller.inject_host_failstop(pool.host("node0"))

    world.engine.process(failstop(), name="failstop-timeline")
    world.run(until=sec(6))
    controller.stop()
    assert len(results) == 15
    assert all(r.startswith(b"PONG") for r in results)
    assert proxy.counters.dropped == 0
    assert proxy.counters.routed == proxy.counters.relayed + proxy.inflight()
