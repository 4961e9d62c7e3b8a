"""Tests for the runtime state auditor: unit sweeps, injected faults, and
the end-to-end audit-enabled epoch loop."""

import pytest

from repro.analysis.auditor import InvariantViolation, StateAuditor
from repro.kernel.costmodel import CostModel
from repro.kernel.mm import AddressSpace, Vma
from repro.kernel.task import Process
from repro.net import World
from repro.replication import NiliconConfig
from repro.sim import ms

from tests.replication.conftest import make_deployment


def make_mm(n_pages=64):
    mm = AddressSpace(CostModel(), name="test-mm")
    mm.mmap(Vma(start=0, n_pages=n_pages, kind="heap", name="[heap]"))
    return mm


class FakeContainer:
    """Minimal container shim: one process, no sockets, no mounts."""

    def __init__(self, mm):
        self.processes = [Process(comm="fake", address_space=mm)]
        self.stack = _EmptyStack()

    def mounted_filesystems(self):
        return []


class _EmptyStack:
    connections: dict = {}
    name = "fake-stack"


# --------------------------------------------------------------------------- #
# Soft-dirty shadow                                                            #
# --------------------------------------------------------------------------- #
class TestSoftDirtyShadow:
    def test_clean_epoch_passes(self):
        mm = make_mm()
        auditor = StateAuditor()
        auditor.attach_address_space(mm)
        mm.start_tracking("soft_dirty")
        for i in range(10):
            mm.write(i, b"x")
        assert auditor.audit_epoch(FakeContainer(mm)) == []
        mm.clear_refs()
        mm.write(3, b"y")
        assert auditor.audit_epoch(FakeContainer(mm)) == []
        assert auditor.epochs_audited == 2

    def test_dropped_dirty_bit_detected(self):
        """The satellite requirement: a dirty page silently dropped from
        soft-dirty tracking must be caught."""
        mm = make_mm()
        auditor = StateAuditor()
        auditor.attach_address_space(mm)
        mm.start_tracking("soft_dirty")
        for i in range(8):
            mm.write(i, b"x")
        mm._tracking.dirty.discard(5)  # inject: kernel loses a dirty bit
        with pytest.raises(InvariantViolation) as excinfo:
            auditor.audit_epoch(FakeContainer(mm))
        (violation,) = excinfo.value.violations
        assert violation.invariant == "soft_dirty"
        assert "missing=[5]" in violation.diff()

    def test_spurious_dirty_bit_detected(self):
        mm = make_mm()
        auditor = StateAuditor(raise_on_violation=False)
        auditor.attach_address_space(mm)
        mm.start_tracking("soft_dirty")
        mm.write(1, b"x")
        mm._tracking.dirty.add(9)  # inject: phantom dirty bit
        found = auditor.audit_epoch(FakeContainer(mm))
        assert any("spurious=[9]" in v.diff() for v in found)

    def test_munmap_keeps_shadow_consistent(self):
        mm = make_mm()
        vma2 = Vma(start=100, n_pages=8, kind="anon")
        mm.mmap(vma2)
        auditor = StateAuditor()
        auditor.attach_address_space(mm)
        mm.start_tracking("soft_dirty")
        mm.write(2, b"a")
        mm.write(101, b"b")
        mm.munmap(vma2)
        assert auditor.audit_epoch(FakeContainer(mm)) == []

    def test_attach_mid_run_adopts_current_view(self):
        mm = make_mm()
        mm.start_tracking("soft_dirty")
        mm.write(4, b"pre-attach")
        auditor = StateAuditor()
        auditor.attach_address_space(mm)  # after writes already happened
        mm.write(5, b"post-attach")
        assert auditor.audit_epoch(FakeContainer(mm)) == []


# --------------------------------------------------------------------------- #
# VMA / fd invariants                                                          #
# --------------------------------------------------------------------------- #
class TestStructuralInvariants:
    def test_resident_page_outside_vma_detected(self):
        mm = make_mm()
        mm.pages[999] = b"stray"  # inject: bypass write() mapping check
        auditor = StateAuditor(raise_on_violation=False)
        found = auditor.audit_epoch(FakeContainer(mm))
        assert any(v.invariant == "vma" for v in found)

    def test_vma_index_and_kept_heap_checked(self):
        mm = make_mm()
        mm.mmap(Vma(start=100, n_pages=8, kind="anon"))
        auditor = StateAuditor(raise_on_violation=False)
        assert auditor.audit_epoch(FakeContainer(mm)) == []
        mm.vma_starts[1] = 104  # inject: index drifts from the list
        mm.heap_vma = mm.vmas[1]  # inject: kept heap is not the heap
        found = auditor.audit_epoch(FakeContainer(mm))
        messages = {v.message for v in found if v.invariant == "vma"}
        assert messages == {
            "VMA start index disagrees with the VMA list",
            "kept heap VMA is not the first heap mapping",
        }

    def test_fd_key_mismatch_detected(self):
        mm = make_mm()
        container = FakeContainer(mm)
        process = container.processes[0]
        entry = process.install_fd("file", object())
        process.fds[entry.fd + 7] = process.fds.pop(entry.fd)  # inject
        auditor = StateAuditor(raise_on_violation=False)
        found = auditor.audit_epoch(container)
        assert any(v.invariant == "fd" for v in found)

    def test_dead_fd_object_detected(self):
        mm = make_mm()
        container = FakeContainer(mm)
        container.processes[0].install_fd("socket", None)  # inject
        auditor = StateAuditor(raise_on_violation=False)
        found = auditor.audit_epoch(container)
        assert any(
            v.invariant == "fd" and "no kernel object" in v.message for v in found
        )


# --------------------------------------------------------------------------- #
# TCP invariants (real sockets via a world-level connection)                   #
# --------------------------------------------------------------------------- #
def established_pair():
    """Build a genuinely established client/server socket pair."""
    world = World(seed=11)
    from repro.kernel.netdev import NetDevice
    from repro.kernel.tcp import TcpStack

    stacks = []
    for i in range(2):
        stack = TcpStack(world.engine, world.costs, f"10.9.0.{i + 1}", name=f"s{i}")
        dev = NetDevice(f"t{i}", f"10.9.0.{i + 1}", f"02:00:00:00:09:{i:02x}", world.engine)
        stack.attach_device(dev)
        world.bridge.attach(dev)
        stacks.append(stack)
    server_stack, client_stack = stacks

    listener = server_stack.socket()
    listener.listen(80)
    client = client_stack.socket()
    result = {}

    def connect():
        yield client.connect("10.9.0.1", 80)

    def accept():
        sock = yield listener.accept()
        result["server"] = sock

    world.engine.process(connect())
    world.engine.process(accept())
    world.run(until=ms(50))
    return world, client, result["server"], server_stack, client_stack


class TestTcpInvariants:
    def test_established_connection_passes(self):
        world, client, server, server_stack, client_stack = established_pair()
        client.send(b"hello" * 100)
        world.run(until=ms(100))
        auditor = StateAuditor(raise_on_violation=False)
        for stack in (server_stack, client_stack):
            assert auditor._check_tcp(stack) == []

    def test_corrupted_snd_una_detected(self):
        world, client, server, server_stack, client_stack = established_pair()
        client.snd_una = client.snd_nxt + 100  # inject
        auditor = StateAuditor(raise_on_violation=False)
        found = auditor._check_tcp(client_stack)
        assert any("snd_una" in v.message for v in found)

    def test_write_queue_gap_detected(self):
        world, client, server, server_stack, client_stack = established_pair()
        # Inject: unacked bytes present but missing from the write queue.
        client.snd_nxt += 40
        auditor = StateAuditor(raise_on_violation=False)
        found = auditor._check_tcp(client_stack)
        assert any(v.invariant == "tcp" for v in found)


# --------------------------------------------------------------------------- #
# End-to-end: audit-enabled replication epoch loop                             #
# --------------------------------------------------------------------------- #
class TestEndToEnd:
    def test_epoch_loop_with_auditing_has_no_false_positives(self):
        world = World(seed=23)
        deployment = make_deployment(
            world, config=NiliconConfig.nilicon().with_(audit=True)
        )
        container = deployment.container
        proc = container.processes[0]
        heap = container.heap_vma

        def workload():
            step = 0
            while not container.dead and world.now < ms(400):
                def mutate(s=step):
                    proc.mm.write(heap.start + (s % 64), f"v{s}".encode())
                try:
                    yield from container.run_slice(proc, 500, mutate=mutate)
                except Exception:
                    return
                step += 1

        world.engine.process(workload())
        deployment.start()
        world.run(until=ms(400))
        deployment.stop()
        auditor = deployment.auditor
        assert auditor is not None
        assert auditor.epochs_audited >= 5
        assert auditor.violations == []
        assert deployment.metrics.n_epochs >= 5  # replication ran normally

    def test_failover_restore_is_audited(self):
        world = World(seed=23)
        deployment = make_deployment(
            world, config=NiliconConfig.nilicon().with_(audit=True)
        )
        deployment.start()
        world.run(until=ms(500))
        deployment.inject_fail_stop()
        world.run(until=ms(1500))
        assert deployment.failed_over
        auditor = deployment.auditor
        assert auditor.restores_audited == 1
        assert auditor.violations == []

    def test_audit_off_installs_no_hook(self):
        world = World(seed=23)
        deployment = make_deployment(world)  # default: audit=False
        assert deployment.auditor is None
        assert all(
            p.mm.audit_hook is None for p in deployment.container.processes
        )
