"""The container runtime: creation, the freezer, and the execution gate.

Freeze fidelity (paper §II-B, §V-A): the runtime sends virtual signals to
every task; tasks in user code stop quickly, tasks in system calls are
kicked out.  Stock CRIU then sleeps 100 ms before checking; NiLiCon polls.
Here, workload processes execute through :meth:`Container.run_slice`, so
freezing has teeth: once the gate closes no workload slice starts, and the
freezer genuinely waits for in-flight slices to drain — the emergent wait is
the paper's "average busy looping time less than 1 ms".

The container's TCP stack keeps running while frozen (it is *kernel* state),
which is exactly why NiLiCon must block network input during checkpointing
(§III) — and the stack records any input processed while frozen so tests can
assert the hazard exists without blocking and disappears with it.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator

from repro.container.spec import ContainerSpec, ProcessSpec
from repro.kernel.cgroup import Cgroup
from repro.kernel.errors import KernelError
from repro.kernel.fs import FileSystem
from repro.kernel.kernel import Kernel
from repro.kernel.mm import AddressSpace, Vma
from repro.kernel.namespaces import MountEntry, NamespaceSet, NetNamespace
from repro.kernel.netdev import Bridge, NetDevice
from repro.kernel.task import Process, Task, TaskState
from repro.kernel.tcp import TcpStack
from repro.sim.engine import Engine, Event
from repro.sim.resources import Gate, Semaphore

__all__ = ["Container", "ContainerRuntime"]

_mac_counter = itertools.count(1)


class Container:
    """A running container instance."""

    def __init__(self, kernel: Kernel, spec: ContainerSpec, bridge: Bridge) -> None:
        self.kernel = kernel
        self.engine: Engine = kernel.engine
        self.spec = spec
        self.name = spec.name

        # -- network namespace -------------------------------------------
        mac = f"02:00:00:00:00:{next(_mac_counter):02x}"
        self.stack = TcpStack(self.engine, kernel.costs, spec.ip, name=f"{spec.name}-netns")
        self.veth = NetDevice(f"{spec.name}-veth", spec.ip, mac, self.engine)
        self.stack.attach_device(self.veth)
        self.bridge = bridge
        bridge.attach(self.veth)
        netns = NetNamespace(name=f"{spec.name}-net", devices=[self.veth], stack=self.stack)

        # -- namespaces / cgroup ------------------------------------------
        self.namespaces = NamespaceSet(spec.name, netns)
        for mountpoint, fs_name in spec.mounts:
            self.namespaces.add_mount(MountEntry(mountpoint=mountpoint, source=fs_name))
            kernel.ftrace.trace("do_mount", self, mountpoint)
        self.cgroup = Cgroup(name=f"/sys/fs/cgroup/{spec.name}")
        for key, value in spec.cgroup_attributes.items():
            self.cgroup.set_attribute(key, value)
            kernel.ftrace.trace("cgroup_write", self, key)

        # -- processes ---------------------------------------------------------
        self.processes: list[Process] = []
        for pspec in spec.processes:
            self.processes.append(self._materialize_process(pspec))

        # -- execution control ---------------------------------------------------
        self.run_gate = Gate(self.engine, name=f"{spec.name}-gate", open_=True)
        #: Per-process CPU parallelism: at most n_threads concurrent slices.
        self._cpu_sems: dict[int, Semaphore] = {
            p.pid: Semaphore(self.engine, p.n_threads, name=f"{p.comm}-cpu")
            for p in self.processes
        }
        self.frozen = False
        self.dead = False
        #: Fractional CPU tax on every slice.  Zero for native containers;
        #: the MC baseline sets it to model VM-exit/virtualization overhead
        #: on guest execution.
        self.cpu_tax = 0.0
        self._active_slices = 0
        self._quiesce_waiters: list[Event] = []
        self._keepalive_on = False
        #: Accrued stopped time, for overhead breakdown metrics.
        self.total_frozen_us = 0
        self._frozen_since: int | None = None

    # ------------------------------------------------------------------ #
    # Construction helpers                                                 #
    # ------------------------------------------------------------------ #
    def _materialize_process(self, pspec: ProcessSpec) -> Process:
        mm = AddressSpace(self.kernel.costs, name=f"{self.name}/{pspec.comm}")
        # Layout: text+libs low, heap in the middle, stack high.
        next_page = 0x100
        for i in range(pspec.n_mapped_files):
            path = f"/usr/lib/{pspec.comm}/lib{i:03d}.so"
            mm.mmap(
                Vma(
                    start=next_page,
                    n_pages=pspec.pages_per_mapped_file,
                    prot="r-x",
                    kind="file",
                    file_path=path,
                )
            )
            self.kernel.ftrace.trace("do_mmap_file", self, path)
            next_page += pspec.pages_per_mapped_file
        heap_start = max(next_page, 0x10000)
        mm.mmap(Vma(start=heap_start, n_pages=pspec.heap_pages, kind="heap", name="[heap]"))
        mm.mmap(Vma(start=0x7F0000, n_pages=256, kind="stack", name="[stack]"))
        process = Process(comm=pspec.comm, address_space=mm)
        for _ in range(pspec.n_threads - 1):
            process.spawn_thread()
        self.kernel.adopt_process(process)
        return process

    @property
    def heap_vma(self) -> Vma:
        """Heap of the first process (workload convenience)."""
        return self.processes[0].mm.heap_vma

    def heap_vma_of(self, process: Process) -> Vma:
        return process.mm.heap_vma

    @property
    def tasks(self) -> list[Task]:
        return [t for p in self.processes for t in p.tasks]

    @property
    def n_threads(self) -> int:
        return len(self.tasks)

    # ------------------------------------------------------------------ #
    # Execution gate (workload driver API)                                 #
    # ------------------------------------------------------------------ #
    def run_slice(
        self,
        process: Process,
        work_us: int,
        mutate: Callable[[], None] | None = None,
    ) -> Generator[Any, Any, int]:
        """Execute *work_us* microseconds of workload CPU on *process*.

        Blocks while the container is frozen.  Dirty-tracking fault time
        accrued by the process's page writes is charged on top of the work
        (this is the runtime overhead component of Fig. 3).  Returns total
        microseconds charged.

        *mutate*, if given, runs synchronously at the end of the slice,
        while the slice still counts as active — so the freezer can never
        observe the container quiesced between the work and its state
        mutation.  Workloads use this for the page/file/socket writes the
        slice's computation produces.
        """
        while self.frozen:
            yield self.run_gate.wait()
        if self.dead:
            raise KernelError(f"{self.name}: run_slice on a dead container")
        sem = self._cpu_sems.get(process.pid)
        if sem is not None:
            yield sem.acquire()
            # The gate may have closed while queued for a CPU.
            while self.frozen:
                yield self.run_gate.wait()
            if self.dead:
                sem.release()
                raise KernelError(f"{self.name}: run_slice on a dead container")
        self._active_slices += 1
        try:
            if self.cpu_tax:
                work_us = int(work_us * (1.0 + self.cpu_tax))
            fault_before = process.mm.drain_fault_time()
            if work_us + fault_before > 0:
                yield self.engine.timeout(work_us + fault_before)
            if mutate is not None and not self.dead:
                mutate()
            # Faults incurred by the mutation itself are charged in-slice.
            fault_after = process.mm.drain_fault_time()
            if fault_after > 0:
                yield self.engine.timeout(fault_after)
            total = work_us + fault_before + fault_after
            process.leader.advance(total)
            self.cgroup.charge_cpu(total)
        finally:
            self._active_slices -= 1
            if sem is not None:
                sem.release()
            if self._active_slices == 0:
                waiters, self._quiesce_waiters = self._quiesce_waiters, []
                for event in waiters:
                    event.succeed(None)
        return total

    # ------------------------------------------------------------------ #
    # Freezer (SSII-B freeze, SSV-A optimization)                          #
    # ------------------------------------------------------------------ #
    def freeze(self, poll: bool = True) -> Generator[Any, Any, int]:
        """Stop all container tasks; returns the microseconds it took.

        ``poll=False`` reproduces stock CRIU's fixed 100 ms sleep; ``True``
        is NiLiCon's continuous polling (<1 ms typical).
        """
        if self.frozen:
            raise KernelError(f"{self.name}: freeze while already frozen")
        costs = self.kernel.costs
        start = self.engine.now
        self.frozen = True
        self.run_gate.close()
        self.cgroup.freezer_state = "FREEZING"
        # Deliver virtual signals to every task.
        yield self.engine.timeout(costs.freeze_signal_per_task * self.n_threads)
        if not poll:
            yield self.engine.timeout(costs.freeze_sleep_unoptimized)
        # Wait for in-flight work (tasks in user code / syscalls) to settle.
        while self._active_slices > 0:
            if poll:
                yield self.engine.timeout(costs.freeze_poll_interval)
            else:
                event = Event(self.engine)
                self._quiesce_waiters.append(event)
                yield event
        for task in self.tasks:
            task.state = TaskState.FROZEN
        self.stack.frozen = True
        self.cgroup.freezer_state = "FROZEN"
        self._frozen_since = self.engine.now
        return self.engine.now - start

    def thaw(self) -> Generator[Any, Any, None]:
        if not self.frozen:
            raise KernelError(f"{self.name}: thaw while not frozen")
        costs = self.kernel.costs
        yield self.engine.timeout(costs.thaw_per_task * self.n_threads)
        for task in self.tasks:
            task.state = TaskState.RUNNING
        self.stack.frozen = False
        self.frozen = False
        self.cgroup.freezer_state = "THAWED"
        if self._frozen_since is not None:
            self.total_frozen_us += self.engine.now - self._frozen_since
            self._frozen_since = None
        self.run_gate.open()

    # ------------------------------------------------------------------ #
    # Keep-alive (SSIV: defeats false alarms when idle)                    #
    # ------------------------------------------------------------------ #
    def start_keepalive(self, interval_us: int = 30_000) -> None:
        """A process that wakes every 30 ms and executes ~1000 instructions,
        keeping ``cpuacct.usage`` increasing while the container lives."""
        if self._keepalive_on:
            return
        self._keepalive_on = True

        def keepalive() -> Generator[Any, Any, None]:
            # Absolute 30 ms schedule: a wake-up that lands during a
            # checkpoint stop is *deferred* by the freezer and executes at
            # thaw, but the next wake-up still comes from the original
            # schedule (itimer semantics).  Re-arming after each deferred
            # wake would stretch the effective period beyond the heartbeat
            # window and starve the detector into false failovers.
            next_tick = self.engine.now + interval_us
            while not self.dead:
                delay = next_tick - self.engine.now
                if delay > 0:
                    yield self.engine.timeout(delay)
                while self.frozen and not self.dead:
                    yield self.run_gate.wait()
                if self.dead:
                    return
                self.cgroup.charge_cpu(1)  # ~1000 instructions
                next_tick += interval_us

        self.engine.process(keepalive(), name=f"{self.name}-keepalive")

    # ------------------------------------------------------------------ #
    # Mutation wrappers that fire ftrace hooks (SSV-B change detection)    #
    # ------------------------------------------------------------------ #
    def add_mount(self, mountpoint: str, source: str) -> None:
        self.namespaces.add_mount(MountEntry(mountpoint=mountpoint, source=source))
        self.kernel.ftrace.trace("do_mount", self, mountpoint)

    def set_hostname(self, hostname: str) -> None:
        self.namespaces.set_hostname(hostname)
        self.kernel.ftrace.trace("sethostname", self, hostname)

    def set_cgroup_attribute(self, key: str, value: int) -> None:
        self.cgroup.set_attribute(key, value)
        self.kernel.ftrace.trace("cgroup_write", self, key)

    def mmap_file(self, process: Process, path: str, n_pages: int) -> Vma:
        vmas = process.mm.vmas  # sorted and disjoint: the last one ends highest
        start = (vmas[-1].end if vmas else 0x100) + 16
        vma = process.mm.mmap(Vma(start=start, n_pages=n_pages, kind="file", file_path=path))
        self.kernel.ftrace.trace("do_mmap_file", self, path)
        return vma

    # ------------------------------------------------------------------ #
    # Mounted filesystems                                                  #
    # ------------------------------------------------------------------ #
    def mounted_filesystems(self) -> list[FileSystem]:
        return [
            self.kernel.filesystems[entry.source]
            for entry in self.namespaces.mounts
            if entry.source in self.kernel.filesystems
        ]

    # ------------------------------------------------------------------ #
    # Teardown                                                             #
    # ------------------------------------------------------------------ #
    def kill(self) -> None:
        """Fail-stop the container: no further execution, no network.

        Blocked workload slices are released so they observe ``dead`` and
        terminate (via the :class:`~repro.kernel.errors.KernelError` raised
        by :meth:`run_slice`).
        """
        self.dead = True
        self.veth.cable_cut = True
        self.frozen = False
        self.run_gate.open()

    def destroy(self) -> None:
        self.dead = True
        self.frozen = False
        self.run_gate.open()
        for process in self.processes:
            process.exit()
            self.kernel.reap_process(process)
        self.veth.detach()


class ContainerRuntime:
    """Factory for containers on one host kernel (the runC analogue)."""

    def __init__(self, kernel: Kernel, bridge: Bridge) -> None:
        self.kernel = kernel
        self.bridge = bridge
        self.containers: dict[str, Container] = {}

    def create(self, spec: ContainerSpec) -> Container:
        if spec.name in self.containers:
            raise KernelError(f"container {spec.name} already exists")
        container = Container(self.kernel, spec, self.bridge)
        self.containers[spec.name] = container
        return container

    def destroy(self, name: str) -> None:
        container = self.containers.pop(name, None)
        if container is not None:
            container.destroy()
