"""Additional TCP edge cases: abort, listener lifecycle, odd packets."""

import pytest

from repro.kernel.costmodel import CostModel
from repro.kernel.errors import SocketError
from repro.kernel.netdev import Bridge, NetDevice, Packet
from repro.kernel.tcp import TcpStack, TcpState, _server_iss
from repro.sim import Engine, ms


class Net:
    def __init__(self):
        self.engine = Engine()
        self.costs = CostModel()
        self.bridge = Bridge(self.engine, latency_us=50)
        self.client = self._host("client", "10.0.0.1")
        self.server = self._host("server", "10.0.0.2")

    def _host(self, name, ip):
        stack = TcpStack(self.engine, self.costs, ip, name=name)
        dev = NetDevice(f"{name}-eth", ip, name, self.engine)
        stack.attach_device(dev)
        self.bridge.attach(dev)
        return stack


def connect(net, port=80):
    listener = net.server.socket()
    listener.listen(port)
    accepted = listener.accept()
    client = net.client.socket()
    client.connect("10.0.0.2", port)
    net.engine.run(until=ms(5))
    return client, accepted.value, listener


def test_abort_deregisters_and_cancels_timers():
    net = Net()
    client, child, _listener = connect(net)
    client.send(b"inflight")
    client.abort()
    assert client.state is TcpState.CLOSED
    assert client.conn_key not in net.client.connections
    net.engine.run()  # no dangling retransmit timers drag the clock
    assert net.engine.now < ms(100)


def test_listener_close_stops_accepting():
    net = Net()
    _client, _child, listener = connect(net)
    listener.close()
    assert 80 not in net.server.listeners
    late = net.client.socket()
    result = late.connect("10.0.0.2", 80)
    result.defuse()
    net.engine.run(until=ms(10))
    assert late.state is TcpState.RESET  # refused with RST


def test_second_listen_after_close_allowed():
    net = Net()
    listener = net.server.socket()
    listener.listen(81)
    listener.close()
    relisten = net.server.socket()
    relisten.listen(81)  # must not raise
    assert net.server.listeners[81] is relisten


def test_syn_to_established_connection_ignored():
    net = Net()
    client, child, _listener = connect(net)
    rogue = Packet(src_ip="10.0.0.1", src_port=client.local_port,
                   dst_ip="10.0.0.2", dst_port=80, flags=frozenset({"SYN"}),
                   seq=1)
    before = child.rcv_nxt
    net.server.demux(rogue)
    net.engine.run(until=net.engine.now + ms(5))
    assert child.state is TcpState.ESTABLISHED
    assert child.rcv_nxt == before  # no state damage


def test_rst_never_answered_with_rst():
    net = Net()
    rst = Packet(src_ip="10.0.0.1", src_port=55555, dst_ip="10.0.0.2",
                 dst_port=44444, flags=frozenset({"RST"}))
    net.server.demux(rst)
    assert net.server.rsts_sent == 0


def test_server_iss_is_deterministic_per_tuple():
    a = _server_iss("10.0.0.2", 80, "10.0.0.1", 40000)
    b = _server_iss("10.0.0.2", 80, "10.0.0.1", 40000)
    c = _server_iss("10.0.0.2", 80, "10.0.0.1", 40001)
    assert a == b != c


def test_send_in_fin_wait_rejected():
    net = Net()
    client, _child, _listener = connect(net)
    client.close()
    assert client.state is TcpState.FIN_WAIT
    with pytest.raises(SocketError):
        client.send(b"too late")


def test_repair_state_is_deep_copied():
    """Mutating the live socket after get_repair_state must not corrupt
    the checkpointed copy (torn-state hazard)."""
    net = Net()
    client, child, _listener = connect(net)
    client.send(b"before")
    net.engine.run(until=net.engine.now + ms(5))
    child.enter_repair()
    state = child.get_repair_state()
    child.leave_repair()
    snapshot = bytes(state["recv_buffer"])
    child.recv_nowait(6)  # live socket consumes
    assert state["recv_buffer"] == snapshot


def _ack_from(peer, sock, ack):
    """An ACK from *peer* to *sock* acknowledging up to *ack*."""
    return Packet(src_ip=peer.local_ip, src_port=peer.local_port,
                  dst_ip=sock.local_ip, dst_port=sock.local_port,
                  flags=frozenset({"ACK"}), seq=peer.snd_nxt, ack=ack)


def test_partial_ack_trims_head_segment():
    net = Net()
    client, child, _listener = connect(net)
    data = bytes(range(256)) * 8  # 2048 bytes: a full MSS and a 600-byte tail
    seq = client.snd_nxt
    client.send(data)
    first, second = client.write_queue
    assert first == (seq, data[:1448]) and second == (seq + 1448, data[1448:])
    # Acks arrive before the in-flight segments reach the server.
    client.on_packet(_ack_from(child, client, seq + 100))
    assert list(client.write_queue) == [(seq + 100, data[100:1448]), second]
    assert client.unacked_bytes == len(data) - 100
    client.on_packet(_ack_from(child, client, seq + 1500))
    assert list(client.write_queue) == [(seq + 1500, data[1500:])]
    assert client.unacked_bytes == len(data) - 1500
    net.engine.run(until=net.engine.now + ms(5))
    assert not client.write_queue and client.unacked_bytes == 0


def test_data_available_wakes_each_waiter_at_its_threshold():
    net = Net()
    client, child, _listener = connect(net)
    small = child.data_available(4)
    large = child.data_available(12)
    client.send(b"12345678")
    net.engine.run(until=net.engine.now + ms(5))
    assert small.processed and not large.triggered
    client.send(b"9abc")
    net.engine.run(until=net.engine.now + ms(5))
    assert large.processed
    assert child.recv_nowait(64) == b"123456789abc"


def test_syns_before_accept_are_accepted_in_order():
    net = Net()
    listener = net.server.socket()
    listener.listen(80)
    first = net.client.socket()
    first.connect("10.0.0.2", 80)
    second = net.client.socket()
    second.connect("10.0.0.2", 80)
    net.engine.run(until=ms(5))
    assert first.state is second.state is TcpState.ESTABLISHED
    accepted = [listener.accept().value, listener.accept().value]
    assert [child.remote_port for child in accepted] == [
        first.local_port, second.local_port]
    assert listener.accept().triggered is False  # backlog drained
