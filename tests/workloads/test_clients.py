"""Edge-case tests for the client generators."""

from repro.baselines.stock import StockDeployment
from repro.net import World
from repro.sim import ms, sec
from repro.workloads import protocol
from repro.workloads.base import ClientStats
from repro.workloads.clients import (
    RECV_GRACE_US,
    ClosedLoopClients,
    PipelinedClient,
    make_client_stack,
)
from repro.workloads.microbench import EchoServer


def deploy_echo(world, **kw):
    workload = EchoServer(name="echo", min_len=16, max_len=16, **kw)
    deployment = StockDeployment(world, workload.spec())
    workload.attach(world, deployment.container)
    return workload, deployment


def echo_request(i):
    body = f"payload-{i:04d}!!".encode()
    return body, (lambda response, b=body: None if response == b else "mismatch"), 1


def test_pipelined_client_counts_and_latencies():
    world = World(seed=3)
    deploy_echo(world)
    stats = ClientStats()
    client = PipelinedClient(world, "10.0.1.10", 7000, echo_request, stats,
                             window=4, n_requests=12)
    client.start()
    world.run(until=sec(2))
    assert client.done
    assert stats.completed == 12
    assert len(stats.latencies_us) == 12
    assert all(lat > 0 for lat in stats.latencies_us)
    assert stats.bytes_received == 12 * len(echo_request(0)[0])


def test_pipelined_client_connect_refused_records_error():
    world = World(seed=3)  # nobody listening
    stats = ClientStats()
    client = PipelinedClient(world, "10.0.1.99", 7000, echo_request, stats,
                             n_requests=3)
    client.start()
    world.run(until=sec(8))
    assert client.done
    assert stats.errors == 1
    assert stats.completed == 0


def test_pipelined_client_validation_failure_recorded():
    world = World(seed=3)
    deploy_echo(world)
    stats = ClientStats()

    def bad_request(i):
        body = b"0123456789abcdef"
        return body, (lambda response: "always wrong"), 1

    client = PipelinedClient(world, "10.0.1.10", 7000, bad_request, stats,
                             n_requests=2)
    client.start()
    world.run(until=sec(2))
    assert len(stats.validation_failures) == 2
    assert not stats.ok
    # Unvalidated responses are not latency samples: a corrupt fast reply
    # must not improve the reported percentiles.
    assert stats.completed == 2
    assert stats.latencies_us == []


def serve_raw(world, port=7000, name="raw-srv"):
    """A bare in-test server socket outside any container."""
    stack = make_client_stack(world, name)
    srv = stack.socket()
    srv.listen(port)
    return stack, srv


def test_pipelined_half_close_counts_every_abandoned_request():
    world = World(seed=3)
    stack, srv = serve_raw(world)

    def server():
        conn = yield srv.accept()
        buf = bytearray()
        body = None
        while body is None:
            buf += yield conn.recv(1 << 16)
            body = protocol.pop_frame(buf)
        # Answer exactly one request, then half-close with the remaining
        # three still in flight.
        conn.send(protocol.frame(body))
        yield world.engine.timeout(ms(50))
        conn.close()

    world.engine.process(server(), name="half-close-server")
    stats = ClientStats()
    client = PipelinedClient(world, stack.ip, 7000, echo_request, stats,
                             window=4, n_requests=4)
    client.start()
    world.run(until=sec(2))
    assert client.done
    assert stats.completed == 1
    # Historically the empty chunk recorded a single error; all three
    # abandoned in-flight requests must count.
    assert stats.errors == 3


def test_closed_loop_recv_deadline_unwedges_stalled_upstream():
    world = World(seed=3)
    stack, srv = serve_raw(world, name="blackhole-srv")

    def server():
        conns = []
        while True:
            conn = yield srv.accept()
            conns.append(conn)  # accept, then never reply

    world.engine.process(server(), name="blackhole-server")
    stats = ClientStats()
    clients = ClosedLoopClients(world, stack.ip, 7000, echo_request, stats,
                                n_clients=2, run_until_us=ms(100))
    clients.start()
    # Historically these clients wedged in recv forever; the implicit
    # run_until + grace deadline must retire them.
    world.run(until=ms(100) + sec(6))
    assert clients.done
    assert stats.completed == 0
    assert stats.errors == 2


def test_closed_loop_run_until_deadline_retires_counted_clients():
    world = World(seed=3)
    stack, srv = serve_raw(world, name="blackhole-srv")

    def server():
        conns = []
        while True:
            conn = yield srv.accept()
            conns.append(conn)

    world.engine.process(server(), name="blackhole-server")
    stats = ClientStats()
    clients = ClosedLoopClients(world, stack.ip, 7000, echo_request, stats,
                                n_clients=3, n_requests_per_client=1,
                                run_until_us=ms(200))
    clients.start()
    world.run(until=ms(200) + RECV_GRACE_US + ms(1))
    assert clients.done
    assert stats.errors == 3


def test_closed_loop_validation_failure_is_not_a_latency_sample():
    world = World(seed=3)
    stack, srv = serve_raw(world, name="wrong-bytes-srv")

    def server():
        while True:
            conn = yield srv.accept()
            world.engine.process(_reply_wrong_bytes(conn), name="wrong-bytes-conn")

    world.engine.process(server(), name="wrong-bytes-server")
    stats = ClientStats()
    clients = ClosedLoopClients(world, stack.ip, 7000, echo_request, stats,
                                n_clients=2, n_requests_per_client=2)
    clients.start()
    world.run(until=sec(2))
    assert clients.done
    assert stats.completed == 4
    assert len(stats.validation_failures) == 4
    assert not stats.ok
    # Like PipelinedClient: a corrupt fast reply must not improve the
    # reported percentiles.
    assert stats.latencies_us == []


def _reply_wrong_bytes(conn):
    buf = bytearray()
    while True:
        chunk = yield conn.recv(1 << 16)
        if chunk == b"":
            return
        buf += chunk
        while (body := protocol.pop_frame(buf)) is not None:
            conn.send(protocol.frame(body[::-1]))


def test_closed_loop_finished_on_connect_failure():
    world = World(seed=3)  # nobody listening
    stats = ClientStats()
    clients = ClosedLoopClients(world, "10.0.1.99", 7000, echo_request, stats,
                                n_clients=2, n_requests_per_client=1)
    clients.start()
    world.run(until=sec(8))
    assert clients.done  # _finished incremented on the error path
    assert stats.errors == 2


def test_closed_loop_clients_run_until_deadline():
    world = World(seed=3)
    deploy_echo(world)
    stats = ClientStats()
    clients = ClosedLoopClients(world, "10.0.1.10", 7000, echo_request, stats,
                                n_clients=3, run_until_us=ms(200))
    clients.start()
    world.run(until=ms(400))
    assert clients.done
    assert stats.completed >= 3
    assert stats.ok


def test_closed_loop_think_time_limits_rate():
    world = World(seed=3)

    def run_with(think_us):
        w = World(seed=3)
        deploy_echo(w)
        stats = ClientStats()
        clients = ClosedLoopClients(w, "10.0.1.10", 7000, echo_request, stats,
                                    n_clients=1, think_us=think_us,
                                    run_until_us=ms(500))
        clients.start()
        w.run(until=ms(600))
        return stats.completed

    assert run_with(0) > run_with(ms(50)) * 2


def test_client_stacks_get_distinct_ips():
    world = World(seed=3)
    a = make_client_stack(world)
    b = make_client_stack(world)
    assert a.ip != b.ip
    assert world.bridge.arp_lookup(a.ip) != world.bridge.arp_lookup(b.ip)


def test_throughput_math():
    stats = ClientStats()
    stats.operations = 500
    assert stats.throughput(1_000_000) == 500.0
    assert stats.throughput(500_000) == 1000.0
