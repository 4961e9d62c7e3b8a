"""Validation and recovery-latency microbenchmarks (paper §VII-A, §VII-B).

* :class:`DiskRwWorkload` — "performs a mix of writes and reads of random
  size to random locations in a file.  An error is flagged if the data
  returned by a read differs from the data written to that location
  earlier."  The write journal lives in container memory, so journal and
  file state are always checkpointed consistently; a mismatch after
  failover means NiLiCon lost or tore acknowledged state.
* :class:`EchoServer` — "a client sends a message of random size to the
  server, the server saves it on its stack and then sends it back"; with
  ``message_len=10`` this is also the *Net* benchmark used for the
  recovery-latency breakdown (Table II).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Callable

from repro.container.spec import ContainerSpec, ProcessSpec
from repro.kernel.errors import KernelError
from repro.sim.engine import Interrupt
from repro.workloads.base import ClientStats, ServerWorkload, Workload
from repro.workloads.clients import ClosedLoopClients

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container
    from repro.net.world import World

__all__ = ["DiskRwWorkload", "EchoServer", "region_content"]

JOURNAL_BASE = 8
#: File regions disk-rw writes and reads back, each with one journal page.
N_REGIONS = 64
REGION_BYTES = 4096
#: CPU per disk-rw operation, and echo CPU per KB of request body.
OP_CPU_US = 150
ECHO_CPU_PER_KB_US = 6


def region_content(region: int, version: int, length: int) -> bytes:
    seed = hashlib.sha256(f"{region}:{version}".encode()).hexdigest()
    return (seed * (length // len(seed) + 1))[:length].encode()


class DiskRwWorkload(Workload):
    """The disk/fs-cache/heap stress microbenchmark with self-validation."""

    name = "disk-rw"

    def __init__(self) -> None:
        self.path = "/data/disk-rw.dat"
        #: Errors observed by the in-container validator.
        self.errors: list[str] = []
        self.operations = 0

    def spec(self) -> ContainerSpec:
        return ContainerSpec(
            name=self.name,
            ip=self.ip,
            processes=[
                ProcessSpec(comm="disk-rw", n_threads=1,
                            heap_pages=JOURNAL_BASE + N_REGIONS + 16,
                            n_mapped_files=12)
            ],
            mounts=[("/data", f"{self.name}-fs")],
        )

    def _journal_page(self, container: "Container", region: int) -> int:
        return container.heap_vma.start + JOURNAL_BASE + region

    def warmup(self, world: "World", container: "Container") -> None:
        fs = container.mounted_filesystems()[0]
        if not fs.exists(self.path):
            fs.create(self.path)

    def attach(self, world: "World", container: "Container") -> None:
        world.engine.process(self._loop(world, container), name="disk-rw-loop")

    def _loop(self, world: "World", container: "Container"):
        process = container.processes[0]
        fs = container.mounted_filesystems()[0]
        rng = world.rng.stream("disk-rw", owner="repro.workloads.microbench")
        flush_tick = 0
        while not container.dead:
            region = rng.randrange(N_REGIONS)
            length = rng.randrange(1, REGION_BYTES + 1)
            do_write = rng.random() < 0.5

            def mutate(region=region, length=length, do_write=do_write):
                journal = self._journal_page(container, region)
                raw = process.mm.read(journal)
                version, known_len = (
                    [int(x) for x in raw.split(b":")] if raw else (0, 0)
                )
                if do_write:
                    data = region_content(region, version + 1, length)
                    fs.write(self.path, region * REGION_BYTES, data)
                    process.mm.write(journal, f"{version + 1}:{length}".encode())
                elif version > 0:
                    got = fs.read(self.path, region * REGION_BYTES, known_len)
                    want = region_content(region, version, known_len)
                    if got != want:
                        self.errors.append(
                            f"region {region} v{version}: read differs from write"
                        )
                self.operations += 1

            try:
                yield from container.run_slice(process, OP_CPU_US, mutate=mutate)
            except (Interrupt, KernelError):
                return
            flush_tick += 1
            if flush_tick % 8 == 0:
                try:
                    yield from container.kernel.fs_writeback(fs, limit=32)
                except (Interrupt, KernelError):
                    return


class EchoServer(ServerWorkload):
    """Echo server stressing the network stack and an in-memory 'stack'."""

    port = 7000

    def __init__(
        self,
        name: str = "net-echo",
        min_len: int = 1,
        max_len: int = 65536,
        stack_pages: int = 64,
        n_clients: int = 2,
    ) -> None:
        self.name = name
        self.min_len = min_len
        self.max_len = max_len
        self.stack_pages = stack_pages
        self.n_clients = n_clients

    def spec(self) -> ContainerSpec:
        return ContainerSpec(
            name=self.name,
            ip=self.ip,
            processes=[
                ProcessSpec(
                    comm=self.name,
                    n_threads=1,
                    heap_pages=256 + self.stack_pages,
                    n_mapped_files=15,
                )
            ],
        )

    def request_cpu_us(self, body_len: int) -> int:
        return 20 + (body_len * ECHO_CPU_PER_KB_US) // 1024

    def handle_request(self, container, process, body: bytes, outcome: dict):
        # "the server saves it on its stack": dirty pages proportional to size.
        heap = container.heap_vma_of(process)
        for i in range(min(self.stack_pages, 1 + len(body) // 4096)):
            process.mm.write(heap.start + 256 + i, body[:32])
        return body  # echo

    def start_clients(
        self,
        world: "World",
        stats: ClientStats,
        n_clients: int | None = None,
        run_until_us: int | None = None,
        n_requests_per_client: int | None = None,
        gap_us: int = 0,
    ) -> ClosedLoopClients:
        rng = world.rng.stream(
            f"{self.name}-client",  # nd: logged -- one stream per workload
            owner="repro.workloads.microbench",
        )

        def make_request(i: int) -> tuple[bytes, Callable[[bytes], str | None], int]:
            if self.min_len == self.max_len:
                length = self.min_len
            else:
                length = rng.randrange(self.min_len, self.max_len + 1)
            payload = region_content(i, 1, length)
            body = payload

            def check(response: bytes) -> str | None:
                if response != payload:
                    return f"echo mismatch for request {i}"
                return None

            return body, check, 1

        clients = ClosedLoopClients(
            world,
            self.ip,
            self.port,
            make_request,
            stats,
            n_clients=n_clients if n_clients is not None else self.n_clients,
            think_us=gap_us,
            run_until_us=run_until_us,
            n_requests_per_client=n_requests_per_client,
        )
        clients.start()
        return clients
