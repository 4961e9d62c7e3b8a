"""Unit tests for replication components: netbuffer, DRBD, heartbeat."""

import pytest

from repro.container import ContainerRuntime, ContainerSpec, ProcessSpec
from repro.kernel.netdev import Packet
from repro.net import Channel, World
from repro.replication.drbd import BackupDrbd, PrimaryDrbd
from repro.replication.heartbeat import FailureDetector, HeartbeatSender
from repro.replication.netbuffer import NetworkBuffer
from repro.sim import Engine, ms


@pytest.fixture
def world():
    return World(seed=31)


@pytest.fixture
def container(world):
    runtime = ContainerRuntime(world.primary.kernel, world.bridge)
    return runtime.create(
        ContainerSpec(name="c", ip="10.0.1.10",
                      processes=[ProcessSpec(comm="p", heap_pages=100)])
    )


def mkpkt(payload=b"x"):
    return Packet(src_ip="10.0.1.10", src_port=1, dst_ip="10.0.9.1", dst_port=2,
                  payload=payload)


class TestNetworkBuffer:
    def test_output_held_until_release(self, world, container):
        nb = NetworkBuffer(world.engine, world.costs, container)
        container.veth.egress_plug.enqueue(mkpkt(b"epoch0"))
        nb.insert_epoch_barrier(0)
        assert container.veth.egress_plug.queued == 1
        nb.acked_epoch = 0
        released = nb.release_epoch(0)
        assert released == 1

    def test_epoch_barriers_isolate_epochs(self, world, container):
        nb = NetworkBuffer(world.engine, world.costs, container)
        plug = container.veth.egress_plug
        plug.enqueue(mkpkt(b"e0"))
        nb.insert_epoch_barrier(0)
        plug.enqueue(mkpkt(b"e1"))
        nb.insert_epoch_barrier(1)
        nb.acked_epoch = 0
        assert nb.release_epoch(0) == 1  # only epoch 0's packet
        assert plug.queued == 1

    def test_audit_flags_premature_release(self, world, container):
        nb = NetworkBuffer(world.engine, world.costs, container)
        container.veth.egress_plug.enqueue(mkpkt())
        nb.insert_epoch_barrier(5)
        nb.acked_epoch = 3  # backup has NOT acked epoch 5
        nb.release_epoch(5)
        violations = nb.audit_output_commit()
        assert len(violations) == 1 and "epoch 5" in violations[0]

    def test_audit_clean_when_acked(self, world, container):
        nb = NetworkBuffer(world.engine, world.costs, container)
        nb.insert_epoch_barrier(0)
        nb.acked_epoch = 0
        nb.release_epoch(0)
        assert nb.audit_output_commit() == []

    def test_plug_input_blocking_cheap_firewall_expensive(self, world, container):
        def time_block(mode):
            w = World(seed=31)
            rt = ContainerRuntime(w.primary.kernel, w.bridge)
            c = rt.create(ContainerSpec(name="c", ip="10.0.1.10",
                                        processes=[ProcessSpec(comm="p")]))
            nb = NetworkBuffer(w.engine, w.costs, c, input_block=mode)

            def driver():
                start = w.engine.now
                yield from nb.block_input()
                yield from nb.unblock_input()
                return w.engine.now - start

            return w.run(until=w.engine.process(driver()))

        assert time_block("firewall") > time_block("plug") * 10

    def test_drop_unreleased_output(self, world, container):
        nb = NetworkBuffer(world.engine, world.costs, container)
        container.veth.egress_plug.enqueue(mkpkt())
        container.veth.egress_plug.enqueue(mkpkt())
        assert nb.drop_unreleased_output() == 2


class TestDrbd:
    def test_writes_mirror_to_backup_buffer(self):
        eng = Engine()
        world = World(seed=1)
        primary_dev = world.primary.kernel.add_block_device("vda")
        backup_dev = world.backup.kernel.add_block_device("vda")
        primary = PrimaryDrbd(primary_dev, world.primary.endpoint("pair"))
        backup = BackupDrbd(world.engine, backup_dev)

        def receiver():
            while True:
                delivery = yield world.backup.endpoint("pair").recv()
                msg = delivery.message
                if msg["kind"] == "disk_write":
                    backup.on_disk_write(msg["epoch"], msg["block"], msg["data"])
                elif msg["kind"] == "disk_barrier":
                    backup.on_barrier(msg["epoch"], msg["writes"])

        world.engine.process(receiver())
        primary_dev.write_block(1, b"block-1")
        primary_dev.write_block(2, b"block-2")
        primary.send_barrier(0)
        world.run(until=ms(10))

        assert backup.epoch_complete(0).triggered
        # Not yet applied to the backup disk.
        assert backup_dev.read_block(1) == b""
        assert backup.apply_epoch(0) == 2
        assert backup_dev.read_block(1) == b"block-1"
        assert backup_dev.read_block(2) == b"block-2"

    def test_barrier_before_all_writes_received_blocks(self):
        world = World(seed=1)
        backup_dev = world.backup.kernel.add_block_device("vda")
        backup = BackupDrbd(world.engine, backup_dev)
        backup.on_barrier(0, writes=2)
        backup.on_disk_write(0, 1, b"only-one")
        complete = backup.epoch_complete(0)
        assert not complete.triggered
        backup.on_disk_write(0, 2, b"second")
        assert complete.triggered

    def test_epoch_complete_event_triggers(self):
        world = World(seed=1)
        backup_dev = world.backup.kernel.add_block_device("vda")
        backup = BackupDrbd(world.engine, backup_dev)
        got = []

        def waiter():
            yield backup.epoch_complete(0)
            got.append(world.now)

        world.engine.process(waiter())
        world.run(until=ms(1))
        assert got == []
        backup.on_barrier(0, writes=1)
        backup.on_disk_write(0, 5, b"d")
        world.run(until=ms(2))
        assert got != []

    def test_discard_uncommitted(self):
        world = World(seed=1)
        backup_dev = world.backup.kernel.add_block_device("vda")
        backup = BackupDrbd(world.engine, backup_dev)
        backup.on_disk_write(3, 9, b"ghost")
        assert backup.discard_uncommitted() == 1
        assert backup_dev.read_block(9) == b""

    def test_backup_applies_raw_without_remirroring(self):
        world = World(seed=1)
        backup_dev = world.backup.kernel.add_block_device("vda")
        hooked = []
        backup_dev.add_write_hook(lambda idx, data: hooked.append(idx))
        backup = BackupDrbd(world.engine, backup_dev)
        backup.on_barrier(0, writes=1)
        backup.on_disk_write(0, 1, b"d")
        assert backup.apply_epoch(0) == 1
        assert backup_dev.read_block(1) == b"d"
        assert hooked == []  # raw writes bypass hooks


class TestHeartbeat:
    def test_sender_skips_when_no_cpu_progress(self):
        eng = Engine()
        chan = Channel(eng)
        usage = {"value": 0}
        sender = HeartbeatSender(eng, chan.a, lambda: usage["value"], interval_us=ms(30))
        sender.start()
        eng.run(until=ms(100))
        assert sender.sent == 0
        assert sender.skipped_idle >= 2
        usage["value"] = 100
        eng.run(until=ms(130))
        assert sender.sent == 1
        sender.stop()

    def test_detector_fires_after_threshold_misses(self):
        eng = Engine()
        fired = []
        det = FailureDetector(eng, on_failure=lambda: fired.append(eng.now),
                              interval_us=ms(30))
        det.start()
        det.on_heartbeat()  # arm
        eng.run(until=ms(500))
        assert det.fired
        # 3 consecutive 30 ms misses => fires ~90-120 ms after the last beat.
        assert ms(80) <= fired[0] <= ms(150)

    def test_detector_not_armed_before_first_heartbeat(self):
        eng = Engine()
        fired = []
        det = FailureDetector(eng, on_failure=lambda: fired.append(eng.now),
                              interval_us=ms(30))
        det.start()
        eng.run(until=ms(500))
        assert not det.fired

    def test_heartbeats_reset_miss_counter(self):
        eng = Engine()
        fired = []
        det = FailureDetector(eng, on_failure=lambda: fired.append(eng.now),
                              interval_us=ms(30))
        det.start()

        def beats():
            for _ in range(20):
                det.on_heartbeat()
                yield eng.timeout(ms(30))

        eng.process(beats())
        eng.run(until=ms(500))
        assert not det.fired  # kept alive until beats stop...
        eng.run(until=ms(800))
        assert det.fired  # ...then detected

    def test_detector_stop_cancels(self):
        eng = Engine()
        det = FailureDetector(eng, on_failure=lambda: None, interval_us=ms(30))
        det.start()
        det.on_heartbeat()
        det.stop()
        eng.run(until=ms(500))
        assert not det.fired
