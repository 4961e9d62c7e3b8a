"""Properties of the plug qdisc's epoch-barrier semantics.

Whatever interleaving of enqueues, barriers and releases occurs, the plug
must (a) deliver packets in FIFO order, (b) never release a packet whose
epoch barrier has not been released, and (c) lose nothing except by
explicit drop_all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.netdev import Packet, PlugQdisc

op = st.one_of(
    st.tuples(st.just("pkt"), st.integers(0, 0)),
    st.tuples(st.just("barrier"), st.integers(0, 0)),
    st.tuples(st.just("release"), st.integers(0, 0)),
)


def mkpkt(i: int) -> Packet:
    return Packet(src_ip="a", src_port=1, dst_ip="b", dst_port=2,
                  payload=str(i).encode())


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op, max_size=60))
def test_barrier_release_properties(ops):
    delivered: list[Packet] = []
    plug = PlugQdisc("p", delivered.append)
    plug.plug()

    sent: list[int] = []
    epochs: list[int] = []  # sent-count snapshot at each barrier
    released_epochs = 0
    counter = 0

    for kind, _ in ops:
        if kind == "pkt":
            plug.enqueue(mkpkt(counter))
            sent.append(counter)
            counter += 1
        elif kind == "barrier":
            plug.insert_barrier(len(epochs))
            epochs.append(len(sent))
        else:
            plug.release_oldest()
            if released_epochs < len(epochs):
                released_epochs += 1

    got = [int(p.payload) for p in delivered]
    # (a) FIFO order, no duplication.
    assert got == sorted(got) == list(range(len(got)))
    # (b) exactly the packets before the last released barrier came out.
    expected = epochs[released_epochs - 1] if released_epochs else 0
    assert len(got) == expected
    # (c) everything else is still queued.
    assert plug.queued == len(sent) - len(got)
    assert plug.buffered_total == len(sent)
    assert plug.released_total == len(got)


@settings(max_examples=60, deadline=None)
@given(
    epoch_sizes=st.lists(st.integers(0, 5), min_size=1, max_size=8),
    releases=st.integers(0, 10),
)
def test_release_per_epoch_exactly(epoch_sizes, releases):
    delivered: list[Packet] = []
    plug = PlugQdisc("p", delivered.append)
    plug.plug()
    counter = 0
    for epoch, size in enumerate(epoch_sizes):
        for _ in range(size):
            plug.enqueue(mkpkt(counter))
            counter += 1
        plug.insert_barrier(epoch)
    for _ in range(releases):
        plug.release_oldest()
    expected = sum(epoch_sizes[: min(releases, len(epoch_sizes))])
    assert len(delivered) == expected
