"""Properties of VMA overlap detection and bridge serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.costmodel import CostModel
from repro.kernel.errors import AddressError
from repro.kernel.mm import AddressSpace, Vma
from repro.kernel.netdev import Bridge, NetDevice, Packet
from repro.sim import Engine

#: ("map", start, n_pages, is_heap) or ("unmap", pick): pick chooses which
#: live VMA to unmap, modulo the number mapped.
mmap_step = st.tuples(
    st.just("map"), st.integers(0, 200), st.integers(1, 40), st.booleans()
)
munmap_step = st.tuples(st.just("unmap"), st.integers(0, 1000))


def _check_index(space: AddressSpace) -> None:
    """find_vma and the kept heap agree with a brute-force scan of the list."""
    for idx in range(260):
        owners = [v for v in space.vmas if v.start <= idx < v.end]
        assert len(owners) <= 1  # no page belongs to two VMAs
        if owners:
            assert space.find_vma(idx) is owners[0]
        else:
            with pytest.raises(AddressError):
                space.find_vma(idx)
    heaps = [v for v in space.vmas if v.kind == "heap"]
    assert space.heap_vma is (heaps[0] if heaps else None)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.one_of(mmap_step, munmap_step), max_size=16))
def test_mapped_vmas_never_overlap(steps):
    """Whatever mmap/munmap sequence is attempted, accepted VMAs are
    disjoint, rejected ones genuinely overlapped a live one, and after
    every step each page resolves exactly as a scan of the list says."""
    space = AddressSpace(CostModel())
    live: list[Vma] = []
    for step in steps:
        if step[0] == "map":
            _, start, n_pages, is_heap = step
            candidate = Vma(start=start, n_pages=n_pages, kind="heap" if is_heap else "anon")
            try:
                space.mmap(candidate)
                live.append(candidate)
            except AddressError:
                assert any(candidate.overlaps(v) for v in live)
        elif live:
            space.munmap(live.pop(step[1] % len(live)))
        assert sorted(map(id, space.vmas)) == sorted(map(id, live))
        _check_index(space)
    for i, a in enumerate(live):
        for b in live[i + 1:]:
            assert not a.overlaps(b)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 20_000), min_size=1, max_size=12))
def test_bridge_serializes_and_orders_per_port(sizes):
    """Packets to one port arrive in send order, spaced at least by their
    transmission times (no bandwidth violation)."""
    engine = Engine()
    bridge = Bridge(engine, bandwidth_bps=100_000_000, latency_us=50)
    arrivals: list[tuple[int, int]] = []  # (pkt payload size, time)
    src = NetDevice("src", "10.0.0.1", "s", engine)
    dst = NetDevice("dst", "10.0.0.2", "d", engine,
                    on_ingress=lambda p: arrivals.append((len(p.payload), engine.now)))
    bridge.attach(src)
    bridge.attach(dst)
    packets = [
        Packet(src_ip="10.0.0.1", src_port=1, dst_ip="10.0.0.2", dst_port=2,
               payload=b"x" * size)
        for size in sizes
    ]
    for pkt in packets:
        src.send(pkt)
    engine.run()
    assert [size for size, _t in arrivals] == sizes  # order preserved
    # Inter-arrival gap >= tx time of the later packet (serial link).
    for (_s1, t1), (pkt, (_s2, t2)) in zip(arrivals, zip(packets[1:], arrivals[1:])):
        assert t2 - t1 >= bridge.tx_time_us(pkt.size)
