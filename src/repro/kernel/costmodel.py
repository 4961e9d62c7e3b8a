"""Latency cost model for simulated kernel operations.

Every constant is an integer duration in **microseconds** and carries a
comment naming the paper observation it is calibrated against.  The
experiments never hard-code paper numbers as *outputs*; they charge these
per-operation costs and let the totals (stop time, overhead, recovery
latency) emerge from how many operations each configuration performs.

Two interface generations exist for several operations, reflecting the
paper's before/after optimization pairs (§V):

========================  ==========================  =======================
operation                 slow (stock CRIU / Linux)   fast (NiLiCon)
========================  ==========================  =======================
freeze wait               100 ms sleep                <1 ms polling
VMA enumeration           /proc/pid/smaps             task-diag netlink patch
network input block       iptables rules (7 ms)       plug qdisc (43 us)
dirty page transfer       parasite pipe               shared memory
backup page store         linked list of dirs         4-level radix tree
in-kernel state           recollect everything        ftrace-invalidated cache
========================  ==========================  =======================
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel", "PAGE_SIZE"]

#: Bytes per page; matches x86-64 base pages, and all per-page costs assume it.
PAGE_SIZE = 4096


@dataclass
class CostModel:
    """All kernel/CRIU operation latencies, in integer microseconds.

    One instance (``World.costs``) is shared by every simulated host.  The
    only override is COLO's replica stack, which takes a
    :func:`dataclasses.replace` copy with its two TCP RTOs raised
    (:mod:`repro.baselines.colo`).
    """

    #: Experiment parameters, not container state.
    __ckpt_ignore__ = True

    # ------------------------------------------------------------------ #
    # Freezer (paper SSII-B, SSV-A)                                      #
    # ------------------------------------------------------------------ #
    #: Sending the virtual signal to one task.
    freeze_signal_per_task: int = 15
    #: Stock CRIU sleeps 100 ms after signalling before checking that all
    #: threads are paused ("sleeps for 100ms", SSV-A).
    freeze_sleep_unoptimized: int = 100_000
    #: NiLiCon polls instead; granularity of each poll.
    freeze_poll_interval: int = 50
    #: Time for a task in user code to observe the signal and stop.
    freeze_settle_user: int = 30
    #: Time for a task blocked in a system call to be kicked out and stop.
    #: "Even with our most system call intensive benchmarks, the average
    #: busy looping time is less than 1 ms" (SSV-A).
    freeze_settle_syscall: int = 400
    #: Thawing (resuming) one task.
    thaw_per_task: int = 10

    # ------------------------------------------------------------------ #
    # Per-task / per-process state collection (SSVII-C scalability)       #
    # ------------------------------------------------------------------ #
    #: Registers, signal mask, sched policy etc. for one thread.  "the
    #: average time to retrieve the per-thread states increases from 148us
    #: [1 thread] to 4ms [32 threads]" => ~124 us/thread + ~24 us fixed.
    collect_thread_state_fixed: int = 24
    collect_thread_state_per_thread: int = 124
    #: Per-process collection (fd table walk, VMA bookkeeping, /proc opens).
    #: Calibrated against two anchors: Lighttpd's per-process state
    #: retrieval grows 6.5 ms -> 28.7 ms for 1->8 processes (~3.2 ms/proc
    #: incl. its ~47 VMAs), while swaptions' total 5.1 ms stop implies a
    #: much cheaper single process — so the cost is split into a fixed
    #: part, a per-process part, and a per-VMA part.
    collect_process_fixed: int = 2_600
    collect_process_per_process: int = 2_100
    collect_process_per_vma: int = 15
    #: One fd-table entry (regular file / pipe / device).
    collect_fd_entry: int = 12

    # ------------------------------------------------------------------ #
    # Socket state (SSVII-C: 1.2 ms @ 2 clients -> 13 ms @ 128 clients)   #
    # ------------------------------------------------------------------ #
    collect_socket_fixed: int = 1_010
    collect_socket_per_socket: int = 94
    #: Restoring one socket via repair mode (setsockopt storm).
    restore_socket_per_socket: int = 180

    # ------------------------------------------------------------------ #
    # Infrequently-modified in-kernel state (SSIII, SSV-B)                #
    # ------------------------------------------------------------------ #
    #: "collecting container namespace information may take up to 100ms".
    collect_namespaces: int = 100_000
    #: Control groups, mount points, device files: together with namespaces
    #: and memory-mapped files these total ~160 ms for streamcluster (SSV-B).
    collect_cgroups: int = 22_000
    collect_mounts: int = 26_000
    collect_device_files: int = 4_000
    #: stat() for each memory-mapped file (SSV cause (1)); streamcluster maps
    #: ~65 libraries/files, closing the gap to ~160 ms total.
    collect_mmap_file_stat: int = 120
    #: ftrace hook overhead per hooked kernel-function call ("negligible").
    ftrace_hook_overhead: int = 1
    #: Reading the cached copies instead of the kernel (SSV-B fast path).
    collect_cached_state: int = 150

    # ------------------------------------------------------------------ #
    # Memory checkpointing (SSV-D)                                        #
    # ------------------------------------------------------------------ #
    #: Reading one VMA's entry from /proc/pid/smaps (includes the expensive
    #: page statistics the kernel must generate, SSV cause (2)).
    vma_smaps_per_vma: int = 110
    #: Reading one VMA via the task-diag netlink patch.
    vma_netlink_per_vma: int = 6
    vma_netlink_fixed: int = 40
    #: Scanning /proc/pid/pagemap for soft-dirty bits, per resident page.
    #: "increasing the time to identify dirty pages from 1441us [49K pages]
    #: to 2887us [111K pages]" => ~0.023 us/page + ~300 us fixed.
    pagemap_scan_fixed: int = 300
    pagemap_scan_per_page: int = 1  # charged per 43 pages; see pagemap_scan()
    pagemap_scan_pages_per_us: int = 43
    #: Writing /proc/pid/clear_refs (restarts soft-dirty tracking).
    clear_refs: int = 120
    #: Copying one dirty page into the staging buffer (memcpy).
    #: "increased memory copying time, from 263us [121 pages] to 1099us
    #: [495 pages]" => ~2.2 us/page.
    page_copy: int = 2
    page_copy_per_page_extra_ns: int = 200  # 2.2 us/page total
    #: Transferring one page through the parasite *pipe* (two syscalls plus
    #: copies, SSV cause: "involving multiple system calls").
    parasite_pipe_per_page: int = 9
    #: Transferring one page via the shared-memory region.
    parasite_shm_per_page: int = 2
    #: Parasite command round trip (get registers, sigmask, ...).
    parasite_roundtrip: int = 60
    #: Without the staging buffer (SSV-D deficiency 2) the container stays
    #: stopped while each dirty page is written to the transfer socket:
    #: per-page send syscall + copy.
    net_write_per_page: int = 10
    #: Stock CRIU routes the transfer through proxy processes on both hosts
    #: (SSV-A third optimization removes them): extra copy per page plus a
    #: fixed per-image handoff.
    proxy_per_page: int = 3
    proxy_fixed: int = 500
    #: Soft-dirty write-protect fault on the first write to a page per epoch
    #: (runtime tracking overhead on the primary), in NANOSECONDS — a minor
    #: fault, no VM transition.
    soft_dirty_fault_ns: int = 300
    #: KVM write-protect fault: VM exit + entry per first write, NANOSECONDS;
    #: "high overhead of VM exit and entry operations needed in MC"
    #: (SSVII-C) — an order of magnitude above a soft-dirty fault.
    vm_exit_fault_ns: int = 1_500
    #: MC (Remus-on-KVM) stop-phase costs: pausing the VM and snapshotting
    #: hypervisor-side device state is cheap and does not scale with
    #: container complexity (Table III: MC stop = 2.4-9.4 ms).
    mc_pause_fixed: int = 2_000
    #: Copying one dirty guest page during the MC pause, nanoseconds
    #: (fit to Table III: ~1.2 us/page).
    mc_copy_per_page_ns: int = 1_200

    # ------------------------------------------------------------------ #
    # File system cache / DNC (SSIII)                                     #
    # ------------------------------------------------------------------ #
    #: fgetfc syscall fixed cost plus per returned entry.
    fgetfc_fixed: int = 90
    fgetfc_per_entry: int = 3
    #: Restoring one page-cache page (pwrite) / inode entry (chown...).
    restore_pagecache_per_page: int = 4
    restore_inode_entry: int = 8
    #: Flushing the fs cache to a NAS instead (stock CRIU behaviour): per
    #: dirty page; "may introduce prohibitive overhead of up to hundreds of
    #: milliseconds per epoch" for disk-intensive applications.
    nas_flush_per_page: int = 45
    nas_flush_fixed: int = 2_000

    # ------------------------------------------------------------------ #
    # Network input blocking (SSV-C)                                      #
    # ------------------------------------------------------------------ #
    #: "setting up and removing firewall rules adds a 7ms delay during each
    #: epoch" — split across block and unblock.
    firewall_block: int = 3_500
    firewall_unblock: int = 3_500
    #: "introduces a delay of only 43us during checkpointing".
    plug_block: int = 43
    plug_unblock: int = 20
    #: TCP connection-establishment retry delay when a SYN is *dropped* by
    #: the firewall ("delays of up to three seconds").
    syn_retry_timeout: int = 1_000_000

    # ------------------------------------------------------------------ #
    # TCP (SSV-E)                                                         #
    # ------------------------------------------------------------------ #
    #: Default retransmission timeout of a fresh socket ("at least one
    #: second").
    tcp_rto_default: int = 1_000_000
    #: Minimum RTO, applied in repair mode by NiLiCon's 2-line patch.
    tcp_rto_min: int = 200_000
    #: Per-segment kernel processing.
    tcp_segment_processing: int = 4

    # ------------------------------------------------------------------ #
    # Restore / recovery (SSVII-B, Table II)                              #
    # ------------------------------------------------------------------ #
    #: Forking the CRIU restore process and parsing image files.
    restore_fixed: int = 40_000
    #: Recreating namespaces, cgroups, mounts on the backup.
    restore_namespaces: int = 90_000
    #: Finalization after memory/sockets are back: fd tables, cgroup
    #: re-attachment, credentials, page-cache warm-up.  Charged after the
    #: sockets are restored, so the repaired-socket retransmission timer
    #: (min RTO) largely overlaps it — which is why Table II's TCP
    #: component is far smaller than the RTO.
    restore_finalize: int = 80_000
    #: Restoring one memory page (write into the new address space).
    restore_per_page: int = 3
    #: Restoring one thread (clone + registers + sigmask).
    restore_per_thread: int = 500
    #: Gratuitous ARP broadcast ("ARP 28ms").
    gratuitous_arp: int = 28_000
    #: Reconnecting the container namespace to the bridge.
    bridge_reconnect: int = 1_500

    # ------------------------------------------------------------------ #
    # Backup-side processing                                              #
    # ------------------------------------------------------------------ #
    #: read() syscall on the state stream, charged per chunk received; finer
    #: granularity arrivals cost more CPU (Table V discussion: Node's
    #: socket state "arrives at the backup in small chunks").
    backup_read_chunk: int = 6
    #: Applying one received page to the committed store: radix tree (O(1)).
    pagestore_radix_per_page: int = 1
    #: Linked-list-of-directories store: cost per page *per previous
    #: checkpoint directory* searched (stock CRIU behaviour, SSV-A).
    pagestore_list_per_page_per_ckpt: int = 1
    #: Committing buffered disk writes on the backup, per block.
    backup_disk_commit_per_block: int = 2
    #: Compressing / decompressing one page of checkpoint state (Remus-style
    #: XOR+RLE class codec), when transfer compression is enabled.
    compress_per_page: int = 3
    decompress_per_page: int = 2

    # ------------------------------------------------------------------ #
    # Disk (DRBD)                                                         #
    # ------------------------------------------------------------------ #
    disk_write_per_block: int = 18
    disk_read_per_block: int = 14
    drbd_mirror_per_block: int = 3
    drbd_barrier: int = 25

    # ------------------------------------------------------------------ #
    # Generic syscall / proc parsing overheads                            #
    # ------------------------------------------------------------------ #
    syscall_base: int = 1
    proc_text_parse_per_kb: int = 5

    # ------------------------------------------------------------------ #
    # Derived helpers                                                     #
    # ------------------------------------------------------------------ #
    def pagemap_scan(self, resident_pages: int) -> int:
        """Cost of one soft-dirty scan over *resident_pages* pages."""
        return self.pagemap_scan_fixed + resident_pages // self.pagemap_scan_pages_per_us

    def page_copy_cost(self, pages: int) -> int:
        """memcpy cost for *pages* dirty pages into the staging buffer."""
        return pages * self.page_copy + (pages * self.page_copy_per_page_extra_ns) // 1000

    def thread_collection(self, n_threads: int) -> int:
        return self.collect_thread_state_fixed + n_threads * self.collect_thread_state_per_thread

    def process_collection(self, n_processes: int) -> int:
        return self.collect_process_fixed + n_processes * self.collect_process_per_process

    def socket_collection(self, n_sockets: int) -> int:
        if n_sockets == 0:
            return 0
        return self.collect_socket_fixed + n_sockets * self.collect_socket_per_socket
