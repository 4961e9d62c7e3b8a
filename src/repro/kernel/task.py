"""Tasks (threads), processes and file-descriptor tables.

This is the in-kernel process state CRIU must extract: per-thread registers,
signal masks, timers and scheduling policy (obtainable only from within the
process, via the parasite), plus the per-process fd table and address space
(paper §II-B).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.kernel.errors import KernelError
from repro.kernel.mm import AddressSpace

__all__ = ["FdEntry", "Process", "Task", "TaskState"]


class TaskState(enum.Enum):
    RUNNING = "running"
    #: Blocked inside a (simulated) system call.
    IN_SYSCALL = "in_syscall"
    #: Paused by the cgroup freezer's virtual signal.
    FROZEN = "frozen"
    DEAD = "dead"


_tid_counter = itertools.count(1000)


@dataclass
class Task:
    """One kernel task (thread).

    Registers are a synthetic dict — their *values* round-trip through
    checkpoints and are compared on restore, which is all fidelity requires.
    """

    name: str
    tid: int = field(default_factory=lambda: next(_tid_counter))
    state: TaskState = TaskState.RUNNING  # ckpt: derived -- scheduler/freezer phase, re-derived after restore
    registers: dict[str, int] = field(
        default_factory=lambda: {"rip": 0x400000, "rsp": 0x7FFF0000, "rax": 0}
    )
    signal_mask: int = 0
    pending_signals: tuple[int, ...] = ()
    sched_policy: str = "SCHED_OTHER"
    sched_priority: int = 0
    #: Interval timers (e.g. setitimer) as (name, remaining_us, interval_us).
    timers: tuple[tuple[str, int, int], ...] = ()
    #: Accumulated CPU time, microseconds (feeds cpuacct).
    cpu_time_us: int = 0

    def advance(self, us: int) -> None:
        """Account *us* microseconds of CPU time to this task."""
        self.cpu_time_us += us

    def describe(self) -> dict[str, Any]:
        """Checkpointable thread state (the parasite's view)."""
        return {
            "name": self.name,
            "tid": self.tid,
            "registers": dict(self.registers),
            "signal_mask": self.signal_mask,
            "pending_signals": list(self.pending_signals),
            "sched_policy": self.sched_policy,
            "sched_priority": self.sched_priority,
            "timers": [list(t) for t in self.timers],
            "cpu_time_us": self.cpu_time_us,
        }

    def restore_from(self, desc: dict[str, Any]) -> None:
        self.name = desc["name"]
        self.tid = desc["tid"]
        self.registers = dict(desc["registers"])
        self.signal_mask = desc["signal_mask"]
        self.pending_signals = tuple(desc["pending_signals"])
        self.sched_policy = desc["sched_policy"]
        self.sched_priority = desc["sched_priority"]
        self.timers = tuple(tuple(t) for t in desc["timers"])
        self.cpu_time_us = desc["cpu_time_us"]


@dataclass
class FdEntry:
    """One open file descriptor.

    ``kind`` selects how CRIU checkpoints it; ``obj`` points at the kernel
    object (a :class:`~repro.kernel.fs.OpenFile`, a socket, a pipe end...).
    """

    fd: int
    kind: str  # "file" | "socket" | "pipe" | "device"
    obj: Any
    flags: int = 0


_pid_counter = itertools.count(100)


class Process:
    """A process: a group of tasks sharing an address space and fd table."""

    def __init__(self, comm: str, address_space: AddressSpace, pid: int | None = None) -> None:
        self.comm = comm  # ckpt: derived -- fixed by the ContainerSpec, recreated at restore
        self.pid = pid if pid is not None else next(_pid_counter)  # ckpt: derived -- host-local identity
        self.mm = address_space
        self.tasks: list[Task] = [Task(name=comm)]
        self.fds: dict[int, FdEntry] = {}
        self._next_fd = 3  # ckpt: derived -- recomputed from restored fd entries (0-2 reserved for std streams)
        self.exited = False  # ckpt: ephemeral -- a frozen (checkpointable) container has no reaped exits
        self.exit_code: int | None = None  # ckpt: ephemeral

    @property
    def leader(self) -> Task:
        return self.tasks[0]

    @property
    def n_threads(self) -> int:
        return len(self.tasks)

    def spawn_thread(self, name: str | None = None) -> Task:
        if self.exited:
            raise KernelError(f"spawn_thread on exited process {self.comm}")
        task = Task(name=name or f"{self.comm}-t{len(self.tasks)}")
        self.tasks.append(task)
        return task

    # -- fd table -----------------------------------------------------------
    def install_fd(self, kind: str, obj: Any, flags: int = 0) -> FdEntry:
        entry = FdEntry(fd=self._next_fd, kind=kind, obj=obj, flags=flags)
        self._next_fd += 1
        self.fds[entry.fd] = entry
        return entry

    def fd_entries(self, kind: str | None = None) -> list[FdEntry]:
        entries = sorted(self.fds.values(), key=lambda e: e.fd)
        if kind is not None:
            entries = [e for e in entries if e.kind == kind]
        return entries

    @property
    def cpu_time_us(self) -> int:
        return sum(t.cpu_time_us for t in self.tasks)

    def exit(self, code: int = 0) -> None:
        self.exited = True
        self.exit_code = code
        for task in self.tasks:
            task.state = TaskState.DEAD
