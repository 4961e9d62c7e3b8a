"""The restore engine: rebuild a container from committed checkpoint state.

Runs on the backup host at failover.  The input is the *materialized full
state* the backup agent assembles from its buffers (committed page store +
latest in-kernel component images) — the backup deliberately does not
maintain a ready-to-go container during normal operation (§III: applying
in-kernel state changes per epoch would cost hundreds of milliseconds of
system calls; NiLiCon buffers instead and pays the cost once, here).

Restore order matters and is preserved from the paper: the veth stays
detached from the bridge for the entire restore so that no TCP packet can
reach a half-restored namespace and trigger an RST (§III).  The caller (the
backup agent) reattaches and sends the gratuitous ARP afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.container.spec import ContainerSpec
from repro.criu.config import CriuConfig
from repro.kernel.fs import OpenFile
from repro.kernel.kernel import Kernel
from repro.kernel.mm import AddressSpace, Vma
from repro.kernel.namespaces import MountEntry
from repro.kernel.task import FdEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container, ContainerRuntime

__all__ = ["FullState", "RestoreEngine"]


@dataclass
class FullState:
    """Materialized container state handed to the restore engine."""

    spec: ContainerSpec
    #: Per-process: comm, vmas (descriptors), pages {idx: content},
    #: threads (descriptors), fd_entries.
    processes: list[dict] = field(default_factory=list)
    sockets: list[dict] = field(default_factory=list)
    namespaces: dict | None = None
    cgroup: dict | None = None
    fs_inode_entries: list[dict] = field(default_factory=list)
    fs_page_entries: list[tuple[str, int, bytes]] = field(default_factory=list)

    @property
    def total_pages(self) -> int:
        return sum(len(p["pages"]) for p in self.processes)


class RestoreEngine:
    """Restores containers on one (backup) host."""

    def __init__(self, kernel: Kernel, config: CriuConfig | None = None) -> None:
        self.kernel = kernel
        self.config = config if config is not None else CriuConfig.nilicon()

    def restore(
        self, runtime: "ContainerRuntime", state: FullState
    ) -> Generator[Any, Any, "Container"]:
        """Rebuild the container; returns it still detached from the bridge."""
        costs = self.kernel.costs

        # Fork the CRIU restore process, parse images.
        yield self.kernel.charge(costs.restore_fixed)

        # Recreate namespaces/cgroups/mounts, then detach the veth at once:
        # network input must stay blocked until every socket is back (SSIII).
        container = runtime.create(state.spec)
        container.veth.detach()
        yield self.kernel.charge(costs.restore_namespaces)
        if state.namespaces is not None:
            ns = container.namespaces
            ns.uts_hostname = state.namespaces["uts_hostname"]
            # Mounts added after container creation (spec mounts already
            # exist on the fresh namespace; reconcile by mountpoint).
            present = {m.mountpoint for m in ns.mounts}
            for mount_desc in state.namespaces.get("mounts", ()):
                if mount_desc["mountpoint"] not in present:
                    ns.mounts.append(MountEntry(**mount_desc))
            ns.version = state.namespaces["version"]
        if state.cgroup is not None:
            for key, value in state.cgroup.get("attributes", {}).items():
                container.cgroup.attributes[key] = value
            # cpuacct resumes from the dumped reading: the failure detector
            # only watches increases, so the counter must not jump backwards.
            container.cgroup.cpuacct_usage_us = state.cgroup.get(
                "cpuacct_usage_us", 0
            )
            container.cgroup.version = state.cgroup.get("version", 1)

        # Sockets come back right after the network namespace (SSIII: "the
        # network namespace must be restored before restoring the sockets"),
        # and *before* the bulk memory restore: their retransmission timers
        # then overlap the rest of the recovery work.
        n_socks = 0
        for sock_desc in state.sockets:
            if sock_desc["kind"] == "stack":
                # Stack-wide state: the ephemeral-port allocator must resume
                # past every port the dumped connections ever used, or a
                # post-failover connect() collides with a repaired socket.
                container.stack._next_ephemeral = sock_desc["next_ephemeral"]
        for sock_desc in state.sockets:
            if sock_desc["kind"] == "listener":
                listener = container.stack.socket()
                listener.listen(sock_desc["port"])
                n_socks += 1
        for sock_desc in state.sockets:
            if sock_desc["kind"] == "connection":
                sock = container.stack.socket()
                sock.repair = True
                sock.set_repair_state(
                    sock_desc["repair_state"], rto_patch=self.config.repair_rto_patch
                )
                sock.leave_repair()
                sock.kick_retransmit()
                n_socks += 1
        yield self.kernel.charge(n_socks * costs.restore_socket_per_socket)

        # Processes: rebuild address spaces and thread state.
        for process, pimage in zip(container.processes, state.processes):
            mm = AddressSpace(costs, name=f"{container.name}/{pimage['comm']}")
            for desc in pimage["vmas"]:
                mm.mmap(Vma.from_description(desc))
            non_empty = {
                idx: tok for idx, tok in pimage["pages"].items() if tok != b""
            }
            mm.restore_pages(non_empty)
            process.mm = mm
            yield self.kernel.charge(len(non_empty) * costs.restore_per_page)

            thread_descs = pimage["threads"]
            while len(process.tasks) < len(thread_descs):
                process.spawn_thread()
            del process.tasks[len(thread_descs) :]
            for task, desc in zip(process.tasks, thread_descs):
                task.restore_from(desc)
            yield self.kernel.charge(len(thread_descs) * costs.restore_per_thread)
            # Memory tracking restarts fresh on the backup.
            mm.start_tracking("soft_dirty")

        # Filesystem cache: replay via chown/pwrite-style calls.
        fs_list = container.mounted_filesystems()
        if fs_list and (state.fs_inode_entries or state.fs_page_entries):
            fs = fs_list[0]
            fs.apply_fc_checkpoint(state.fs_inode_entries, state.fs_page_entries)
            yield self.kernel.charge(
                len(state.fs_inode_entries) * costs.restore_inode_entry
                + len(state.fs_page_entries) * costs.restore_pagecache_per_page
            )

        # fd tables: plain files reopen at their dumped offsets (after the
        # fs-cache replay above, so files created mid-epoch exist).  Socket
        # fds were re-established by repair mode; std streams by the runtime.
        for process, pimage in zip(container.processes, state.processes):
            for fd_desc in pimage.get("fd_entries", ()):
                if fd_desc["kind"] != "file" or "path" not in fd_desc:
                    continue
                fs = next(
                    (f for f in fs_list if f.exists(fd_desc["path"])), None
                )
                if fs is None:
                    continue
                open_file = OpenFile(
                    inode=fs.lookup(fd_desc["path"]),
                    offset=fd_desc["offset"],
                    flags=fd_desc["flags"],
                )
                entry = FdEntry(
                    fd=fd_desc["fd"], kind="file", obj=open_file,
                    flags=fd_desc["flags"],
                )
                process.fds[entry.fd] = entry
                process._next_fd = max(process._next_fd, entry.fd + 1)

        # Finalization: cgroup attach, credentials, cache warmup.
        yield self.kernel.charge(costs.restore_finalize)

        return container
