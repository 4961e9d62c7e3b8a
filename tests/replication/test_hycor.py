"""HyCoR mode unit behaviors: flush windows, log shipping, replay.

The end-to-end failure windows (log gap at failover, replay divergence,
crash mid-ship) live in the fault-injection campaign; these tests pin the
building blocks — the shipper's windows and their digest, its
fence-then-ship ordering, and the backup's durable-sequence bookkeeping —
at unit scale.
"""

import pytest

from repro.container import ProcessSpec
from repro.net import World
from repro.replication import NiliconConfig, ReplicatedDeployment
from repro.replication.hycor import LogShipper, hycor_flush_seq
from repro.sim import ms, sec
from repro.sim.ndlog import NDLog, entries_digest

from .conftest import make_deployment, make_spec


def make_hycor(world, **kwargs):
    return make_deployment(world, config=NiliconConfig.hycor(), **kwargs)


# --------------------------------------------------------------------- #
# The shipper's open window and its digest                               #
# --------------------------------------------------------------------- #
class _Sink:
    """Endpoint and netbuffer stand-in: keeps what the shipper sends."""

    def __init__(self):
        self.sent = []
        self.barriers = []

    def send(self, message, size_bytes):
        self.sent.append(message)

    def insert_epoch_barrier(self, seq):
        self.barriers.append(seq)


def _attached_shipper(seed):
    """A shipper over a two-process container, its hooks installed."""
    world = World(seed=seed)
    spec = make_spec()
    spec.processes.append(ProcessSpec(comm="aux", heap_pages=64))
    container = ReplicatedDeployment(
        world, spec, config=NiliconConfig.hycor()).container
    sink = _Sink()
    shipper = LogShipper(world.engine, container, sink, sink)
    shipper.attach()
    return container, shipper, sink


def test_log_shipper_ships_each_window_once():
    container, shipper, sink = _attached_shipper(seed=10)
    first, second = container.processes
    page_a = container.heap_vma_of(first).start
    page_b = container.heap_vma_of(second).start

    second.mm.write(page_b, b"b0")
    first.mm.write(page_a, b"a0")
    first.mm.write(page_a + 1, b"a1")
    shipper._flush()
    first.mm.write(page_a, b"a2")
    second.mm.write(page_b + 1, b"b1")
    shipper._flush()
    shipper._flush()
    shipper.detach()

    windows = [message["entries"] for message in sink.sent]
    # Streams in sorted order; seq is global per stream across flushes.
    assert windows == [
        [["mm0", 0, "write", (page_a, b"a0")],
         ["mm0", 1, "write", (page_a + 1, b"a1")],
         ["mm1", 0, "write", (page_b, b"b0")]],
        [["mm0", 2, "write", (page_a, b"a2")],
         ["mm1", 1, "write", (page_b + 1, b"b1")]],
        [],
    ]
    for message in sink.sent:
        assert message["crc"] == entries_digest(message["entries"])
    # The empty window's digest is a constant, the empty log's.
    assert sink.sent[2]["crc"] == NDLog().digest() == "00000000"
    assert [message["seq"] for message in sink.sent] == [1, 2, 3]
    # One netbuffer fence per flush, numbered like the flush.
    assert sink.barriers == [1, 2, 3]


def test_flush_digest_matches_ndlog_window_digest():
    # A flush's wire CRC is the NDLog's own digest: a log that recorded the
    # same writes hashes to it, window for window.
    container, shipper, sink = _attached_shipper(seed=14)
    first, second = container.processes
    page_a = container.heap_vma_of(first).start
    page_b = container.heap_vma_of(second).start
    log = NDLog()

    first.mm.write(page_a, b"a0")
    second.mm.write(page_b, b"b0")
    log.record("mm0", "write", (page_a, b"a0"))
    log.record("mm1", "write", (page_b, b"b0"))
    shipper._flush()
    assert sink.sent[0]["crc"] == log.digest()

    # A later window, where the per-stream sequence numbers have advanced:
    # the windows shipped so far, taken together, still hash to the log.
    first.mm.write(page_a + 1, b"a1")
    log.record("mm0", "write", (page_a + 1, b"a1"))
    shipper._flush()
    shipper.detach()
    shipped = [entry for message in sink.sent for entry in message["entries"]]
    assert entries_digest(shipped) == log.digest()
    assert sink.sent[1]["crc"] != sink.sent[0]["crc"]
    # And a faithful replay of the log, fully consumed, agrees too.
    replay = NDLog.from_dict(log.to_dict(), mode="replay")
    for stream, method, count in [("mm0", "write", 2), ("mm1", "write", 1)]:
        for _ in range(count):
            replay.replay(stream, method)
    assert replay.digest() == entries_digest(shipped)


def test_flush_digest_detects_any_entry_mutation():
    entries = [["mm0", 0, "write", (3, "tok-a")],
               ["mm1", 0, "write", (1, "tok-c")]]
    good = entries_digest(entries)
    for index, field, value in [(0, 0, "mm2"), (0, 1, 1),
                                (0, 2, "corrupted-write"), (1, 3, (1, "tok-x"))]:
        mutated = [list(entry) for entry in entries]
        mutated[index][field] = value
        assert entries_digest(mutated) != good


def test_empty_window_digest_is_stable():
    # An empty window hashes to the empty log's digest, a constant, on
    # every shipper and after a JSON round trip of the log.
    assert entries_digest([]) == NDLog().digest() == "00000000"
    assert NDLog.from_dict(NDLog().to_dict()).digest() == "00000000"
    crcs = []
    for seed in (15, 16):
        _, shipper, sink = _attached_shipper(seed=seed)
        shipper._flush()
        shipper.detach()
        assert sink.sent[0]["entries"] == []
        crcs.append(sink.sent[0]["crc"])
    assert crcs == ["00000000", "00000000"]


# --------------------------------------------------------------------- #
# Steady-state shipping                                                  #
# --------------------------------------------------------------------- #
def test_hycor_ships_flushes_and_advances_durable_seq():
    world = World(seed=11)
    deployment = make_hycor(world)
    deployment.start()
    world.run(until=ms(600))
    deployment.stop()

    backup = deployment.backup_agent
    shipper = deployment.primary_agent.shipper
    assert backup.log_flushes_received > 10
    assert backup.log_crc_mismatches == 0
    # Every shipped flush arrived in order: durable tracks the shipper
    # (the last in-flight flush may still be on the wire at stop).
    assert shipper.seq - 2 <= backup.durable_seq <= shipper.seq
    assert not backup._future_flushes
    # The adoption horizon is persisted on the container itself.
    assert hycor_flush_seq(deployment.container) == shipper.seq


def test_hycor_releases_output_on_log_commit_not_checkpoint():
    world = World(seed=12)
    deployment = make_hycor(world)
    deployment.start()
    world.run(until=ms(600))
    deployment.stop()

    # Barriers are flush sequences (one per ~3ms window), not checkpoint
    # epochs (one per ~30ms): far more release fences than epochs.
    releases = deployment.netbuffer.releases
    assert len(releases) > 2 * deployment.primary_agent.epoch
    assert not deployment.audit_output_commit()
    assert deployment.netbuffer.release_lag() == 0


def test_hycor_failover_replays_log_tail():
    world = World(seed=13)
    deployment = make_hycor(world)
    deployment.start()

    def dirty():
        proc = deployment.container.processes[0]
        heap = deployment.container.heap_vma_of(proc)
        i = 0
        while not deployment.container.dead:
            yield world.engine.timeout(ms(2))
            proc.mm.write(heap.start + i % 40, f"tok-{i}".encode())
            i += 1

    world.engine.process(dirty())
    world.run(until=ms(500))
    deployment.inject_fail_stop()
    world.run(until=world.now + sec(2))

    backup = deployment.backup_agent
    assert deployment.failed_over
    assert deployment.restored_container is not None
    # Replay advanced the horizon past the checkpoint's frozen log_seq,
    # through every durable flush.
    assert backup.replay_horizon_seq == backup.durable_seq
    assert backup.replayed_flushes > 0
    assert backup.replay_divergences == 0
    assert backup.log_gap_detected is False
    assert deployment.metrics.recovery.replay_us > 0


def test_nilicon_deployment_has_no_shipper():
    world = World(seed=14)
    deployment = make_deployment(world)
    deployment.start()
    world.run(until=ms(200))
    deployment.stop()
    assert not hasattr(deployment.primary_agent, "shipper")
    assert deployment.mode.release_rule == "checkpoint-commit"
    assert hycor_flush_seq(deployment.container) == 0


# --------------------------------------------------------------------- #
# Backup-side sequence discipline                                        #
# --------------------------------------------------------------------- #
def test_backup_parks_past_gap_and_heals_on_checkpoint_supersede():
    world = World(seed=15)
    deployment = make_hycor(world)
    deployment.start()
    world.run(until=ms(300))
    backup = deployment.backup_agent

    durable = backup.durable_seq
    hole, after = durable + 1, durable + 2
    # A flush arrives past a hole: it must park, not commit.
    backup._on_ndlog({"seq": after, "entries": [], "crc": entries_digest([])})
    assert backup.durable_seq == durable
    assert after in backup._future_flushes
    # A checkpoint whose frozen log_seq covers the hole supersedes it:
    # durable jumps to the base and the parked successor unparks.
    backup._after_commit(backup.committed_epoch, {"log_seq": hole})
    assert backup.durable_seq >= after
    assert not backup._future_flushes
    deployment.stop()


def test_backup_refuses_flush_with_bad_digest():
    world = World(seed=16)
    deployment = make_hycor(world)
    deployment.start()
    world.run(until=ms(300))
    backup = deployment.backup_agent

    durable = backup.durable_seq
    backup._on_ndlog({
        "seq": durable + 1,
        "entries": [["mm0", 0, "write", (1, "tok")]],
        "crc": "ffffffff",
    })
    assert backup.durable_seq == durable
    assert backup.log_crc_mismatches == 1
    deployment.stop()


@pytest.mark.parametrize("mode,expected", [
    ("nilicon", "epoch_commit"),
    ("hycor", "log_commit"),
])
def test_netbuffer_ledger_kind_follows_mode(mode, expected):
    world = World(seed=17)
    deployment = make_deployment(
        world, config=NiliconConfig.nilicon().with_(mode=mode)
    )
    assert deployment.netbuffer.commit_ledger_kind == expected
