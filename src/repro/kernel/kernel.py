"""Per-host kernel composition.

A :class:`Kernel` owns everything one simulated machine's Linux kernel owns:
block devices, filesystems, the ftrace registry, the procfs interface, and
the processes/namespaces of containers hosted on it.  Hosts (primary,
backup, client) each get one kernel; containers are created *inside* a
kernel by the container runtime.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.kernel.blockdev import BlockDevice
from repro.kernel.costmodel import CostModel
from repro.kernel.errors import KernelError
from repro.kernel.fs import FileSystem
from repro.kernel.ftrace import FtraceRegistry
from repro.kernel.procfs import ProcFs
from repro.kernel.task import Process
from repro.sim.engine import Engine, Event

__all__ = ["Kernel"]


class Kernel:
    """The kernel of one simulated host."""

    #: The host itself — the thing that fails.  Container state living in
    #: kernel objects is reached through Container/Process/TcpStack, not by
    #: checkpointing the Kernel aggregate.
    __ckpt_ignore__ = True

    def __init__(self, engine: Engine, costs: CostModel, hostname: str) -> None:
        self.engine = engine
        self.costs = costs
        self.hostname = hostname
        self.ftrace = FtraceRegistry()
        self.procfs = ProcFs(engine, costs)
        self.block_devices: dict[str, BlockDevice] = {}
        self.filesystems: dict[str, FileSystem] = {}
        self.processes: list[Process] = []
        #: Fail-stop flag: a failed host's kernel executes nothing further.
        self.failed = False

    # -- time charging -------------------------------------------------------
    def charge(self, us: int) -> Event:
        """An event completing after *us* microseconds of kernel work."""
        return self.engine.timeout(us)

    # -- block / fs ------------------------------------------------------------
    def add_block_device(self, name: str) -> BlockDevice:
        if name in self.block_devices:
            raise KernelError(f"{self.hostname}: duplicate block device {name}")
        device = BlockDevice(f"{self.hostname}/{name}")
        self.block_devices[name] = device
        return device

    def mkfs(self, device_name: str, fs_name: str) -> FileSystem:
        device = self.block_devices[device_name]
        if fs_name in self.filesystems:
            raise KernelError(f"{self.hostname}: duplicate filesystem {fs_name}")
        fs = FileSystem(device, name=f"{self.hostname}/{fs_name}")
        self.filesystems[fs_name] = fs
        return fs

    # -- processes ----------------------------------------------------------------
    def adopt_process(self, process: Process) -> None:
        self.processes.append(process)

    def reap_process(self, process: Process) -> None:
        if process in self.processes:
            self.processes.remove(process)

    # -- cost-charging wrappers around fs/disk operations ---------------------------
    def fs_write(
        self, fs: FileSystem, path: str, offset: int, data: bytes
    ) -> Generator[Any, Any, int]:
        """Write through the page cache; charges cache-write time only
        (writeback to disk is asynchronous and charged separately)."""
        pages = fs.write(path, offset, data)
        yield self.charge(self.costs.syscall_base + pages)
        return pages

    def fs_read(
        self, fs: FileSystem, path: str, offset: int, length: int
    ) -> Generator[Any, Any, bytes]:
        data = fs.read(path, offset, length)
        yield self.charge(self.costs.syscall_base + len(data) // 4096)
        return data

    def fs_writeback(
        self, fs: FileSystem, limit: int | None = None
    ) -> Generator[Any, Any, int]:
        """Flush dirty pages to the block device, charging disk write time."""
        flushed = fs.writeback(limit)
        yield self.charge(flushed * self.costs.disk_write_per_block)
        return flushed

    def fgetfc(self, fs: FileSystem) -> Generator[Any, Any, tuple[list, list]]:
        """The new system call (paper §III): collect-and-clear DNC entries."""
        inode_entries, page_entries = fs.fgetfc()
        cost = self.costs.fgetfc_fixed + self.costs.fgetfc_per_entry * (
            len(inode_entries) + len(page_entries)
        )
        yield self.charge(cost)
        return inode_entries, page_entries
