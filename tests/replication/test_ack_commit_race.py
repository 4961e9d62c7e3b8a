"""The ack-before-commit race: recovery must quiesce in-flight commits.

A failover that overlaps a commit must restore from the last *fully*
committed epoch: the commit/dispatch loops are interrupted, the page
store's open checkpoint is rolled back, and the ack — the primary's
licence to release that epoch's output — is only ever sent post-commit.
The ``unsafe_ack_before_commit`` knob re-creates the legacy ordering and
must reproduce the lost-committed-output violation.

The commit streams ``(pid, idx, content)`` straight out of the received
image across its charge yields, so the last tests guard every image's page
map against writes while a commit hangs at ``backup.mid_commit``.
"""

import pytest

from repro.criu import checkpoint as criu_checkpoint
from repro.criu.images import ProcessImage
from repro.faultinject import FaultPlan, PointFault, crash_primary
from repro.replication import NiliconConfig
from repro.sim.units import ms
from tests.replication.conftest import make_deployment

#: Stall injected into the backup's commit path, long enough for failure
#: detection (~90 ms) plus recovery to finish while the commit hangs.
STALL_US = ms(400)
#: The primary dies this long after the backup hook fires — wide enough
#: for an in-flight ack (50 µs wire latency) to land and release output.
CRASH_AFTER_US = 200
TARGET = 5


def run_mid_commit_crash(world, config=None):
    deployment = make_deployment(world, config=config)
    deployment.start()
    plan = FaultPlan(points=[
        PointFault("backup.mid_commit", epoch=TARGET, stall_us=STALL_US,
                   action=crash_primary(deployment, after_us=CRASH_AFTER_US)),
    ]).arm(world.engine)
    world.run(until=ms(1200))
    plan.disarm()
    return deployment


def test_recovery_quiesces_open_commit(world):
    deployment = run_mid_commit_crash(world)
    backup = deployment.backup_agent
    assert deployment.failed_over
    assert backup.recoveries_started == 1
    # Epoch TARGET was mid-commit when the primary died: recovery must
    # restore from TARGET-1 and the quiesce must keep it that way.
    assert backup.recovered_from_epoch == TARGET - 1
    assert backup.committed_epoch == TARGET - 1
    assert not backup.page_store.checkpoint_open
    assert backup._out_of_order == {}
    # Output commit holds: nothing beyond the recovery point escaped.
    released = [r.epoch for r in deployment.netbuffer.releases]
    assert all(epoch <= backup.recovered_from_epoch for epoch in released)
    assert deployment.audit_output_commit() == []


def test_legacy_ack_before_commit_loses_released_output(world):
    config = NiliconConfig.nilicon().with_(unsafe_ack_before_commit=True)
    deployment = run_mid_commit_crash(world, config=config)
    backup = deployment.backup_agent
    assert deployment.failed_over
    # The ack for epoch TARGET escaped before the commit stalled, so the
    # primary released TARGET's output — but recovery could only restore
    # TARGET-1.  Committed output was lost.
    released = [r.epoch for r in deployment.netbuffer.releases]
    assert TARGET in released
    assert backup.recovered_from_epoch == TARGET - 1


def test_spurious_redetection_never_restarts_recovery(world):
    deployment = run_mid_commit_crash(world)
    backup = deployment.backup_agent
    assert backup.recoveries_started == 1
    backup._on_failure_detected()  # detector glitch after failover
    assert backup.recoveries_started == 1


class GuardedPages(dict):
    """An image's page map that logs every write made to it."""

    writes: list[str] = []


def _logging(name):
    method = getattr(dict, name)

    def logged(self, *args, **kwargs):
        self.writes.append(name)
        return method(self, *args, **kwargs)

    return logged


for _name in ("__setitem__", "__delitem__", "__ior__", "pop", "popitem",
              "clear", "update", "setdefault"):
    setattr(GuardedPages, _name, _logging(_name))


@pytest.fixture
def page_writes(monkeypatch):
    """Every checkpoint image built in the test gets guarded page maps;
    yields the log of writes made to any of them."""
    writes: list[str] = []
    monkeypatch.setattr(GuardedPages, "writes", writes)

    def guarded_image(**fields):
        fields["pages"] = GuardedPages(fields["pages"])
        return ProcessImage(**fields)

    monkeypatch.setattr(criu_checkpoint, "ProcessImage", guarded_image)
    return writes


def _populate_and_dirty(world, deployment, n_pages=120):
    """Make the first image large and keep later epochs dirty."""
    proc = deployment.container.processes[0]
    heap = deployment.container.heap_vma.start
    for i in range(n_pages):
        proc.mm.write(heap + i, b"seed")

    def writer():
        for i in range(400):
            proc.mm.write(heap + i % n_pages, b"w%d" % i)
            yield world.engine.timeout(ms(1))

    world.engine.process(writer(), name="test-writer")


def test_guard_logs_a_write_to_an_image(page_writes):
    # The guard itself must see writes, or the tests below prove nothing.
    pages = GuardedPages({1: b"a"})
    pages[2] = b"b"
    pages.pop(1)
    assert page_writes == ["__setitem__", "pop"]


def test_image_pages_untouched_while_commit_is_suspended(world, page_writes):
    deployment = make_deployment(world)
    _populate_and_dirty(world, deployment)
    store = deployment.backup_agent.page_store
    suspended = []
    deployment.start()
    # Hang the first (full) commit between its halves while the primary
    # keeps checkpointing the writer's pages.
    plan = FaultPlan(points=[
        PointFault("backup.mid_commit", stall_us=ms(60),
                   action=lambda engine: suspended.append(
                       (store.checkpoint_open, store.pages_stored))),
    ]).arm(world.engine)
    world.run(until=ms(500))
    plan.disarm()
    deployment.stop()
    assert suspended == [(True, 60)]  # half of the 120-page full image
    assert deployment.backup_agent.committed_epoch > 2
    assert page_writes == []


def test_image_pages_untouched_across_a_mid_commit_failover(world, page_writes):
    deployment = run_mid_commit_crash(world)
    assert deployment.failed_over
    assert deployment.backup_agent.recovered_from_epoch == TARGET - 1
    assert page_writes == []
