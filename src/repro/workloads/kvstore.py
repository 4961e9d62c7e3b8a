"""NoSQL key-value servers: Redis-like (memory) and SSDB-like (disk).

Paper §VI: "Redis was configured to stress memory by storing all data in
memory (persistence: None).  SSDB was configured to stress disk I/O by
using full persistence.  Each request to Redis/SSDB was a batch of 1K
requests consisting of 50% reads and 50% writes."

Here a *request frame* is one batch: ``('BATCH', [(op, key, value|None),
...])``.  Sets write the value into the key's dedicated page (Redis) and/or
into the store file through the page cache (SSDB, whose background flusher
generates the DRBD disk-write stream).  Values are real ASCII bytes, so a
failover's restored store content is checked byte-for-byte by the client.

The store layout is one page per key (``heap_base + KV_BASE + key_index``),
giving exact dirty-page accounting: one set dirties one page.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.container.spec import ContainerSpec, ProcessSpec
from repro.sim.engine import Interrupt
from repro.kernel.errors import KernelError
from repro.workloads import protocol
from repro.workloads.base import ClientStats, ServerWorkload
from repro.workloads.clients import PipelinedClient

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container
    from repro.net.world import World

__all__ = ["KvRequestFactory", "KvServer"]

#: Offset of the first key page within the heap (low pages hold metadata).
KV_BASE = 64


class KvServer(ServerWorkload):
    """A batched KV server over container memory (and optionally disk)."""

    port = 6379

    def __init__(
        self,
        name: str = "redis",
        n_keys: int = 6000,
        value_len: int = 256,
        persistence: bool = False,
        cpu_per_op_us: int = 3,
        n_threads: int = 1,
        index_pages: int = 64,
        mapped_files: int = 30,
        client_window: int = 64,
    ) -> None:
        self.name = name
        self.n_keys = n_keys
        self.value_len = value_len
        self.persistence = persistence
        self.cpu_per_op_us = cpu_per_op_us
        self.n_threads = n_threads
        self.index_pages = index_pages
        self.mapped_files = mapped_files
        self.client_window = client_window
        self.store_path = f"/data/{name}.db"

    # ------------------------------------------------------------------ #
    # Deployment shape                                                     #
    # ------------------------------------------------------------------ #
    def spec(self) -> ContainerSpec:
        return ContainerSpec(
            name=self.name,
            ip=self.ip,
            processes=[
                ProcessSpec(
                    comm=f"{self.name}-server",
                    n_threads=self.n_threads,
                    heap_pages=KV_BASE + self.n_keys + self.index_pages + 64,
                    n_mapped_files=self.mapped_files,
                )
            ],
            mounts=[("/data", f"{self.name}-fs")] if self.persistence else [],
            cgroup_attributes={"cpu.shares": 1024},
        )

    def key_page(self, container: "Container", key: int) -> int:
        return container.heap_vma.start + KV_BASE + key

    def warmup(self, world: "World", container: "Container") -> None:
        """YCSB-style load phase: populate every key (and the store file)."""
        process = container.processes[0]
        fs = container.mounted_filesystems()[0] if self.persistence else None
        if fs is not None and not fs.exists(self.store_path):
            fs.create(self.store_path)
        for key in range(self.n_keys):
            value = self._initial_value(key)
            if self.persistence:
                fs.write(self.store_path, key * self.value_len, value)
                if key % 16 == 0:
                    process.mm.write(self._index_page(container, key), str(key).encode())
            else:
                process.mm.write(self.key_page(container, key), value)
        if fs is not None:
            fs.writeback()

    def _initial_value(self, key: int) -> bytes:
        return f"k{key:06d}=init".ljust(self.value_len, ".").encode()

    def _index_page(self, container: "Container", key: int) -> int:
        # LSM-memtable-style metadata: consecutive keys land on different
        # index pages, so the dirty-index footprint reflects update breadth.
        base = container.heap_vma.start + KV_BASE + self.n_keys
        return base + key % self.index_pages

    # ------------------------------------------------------------------ #
    # Service                                                              #
    # ------------------------------------------------------------------ #
    def attach(self, world: "World", container: "Container") -> None:
        super().attach(world, container)
        if self.persistence:
            world.engine.process(
                self._flusher(world, container), name=f"{self.name}-flusher"
            )

    def _flusher(self, world: "World", container: "Container"):
        """Background persistence: flush dirty page-cache pages to disk.

        This is what turns SSDB's sets into a continuous DRBD write stream.
        """
        kernel = container.kernel
        while not container.dead:
            yield world.engine.timeout(5_000)
            if container.dead or container.frozen:
                continue
            fs_list = container.mounted_filesystems()
            if fs_list:
                try:
                    yield from kernel.fs_writeback(fs_list[0], limit=64)
                except (Interrupt, KernelError):
                    return

    def request_cpu_us(self, body_len: int) -> int:
        # Cost scales with ops; ops scale with body length (a 50/50 batch
        # averages ~2/3 of a value length per op on the wire).
        approx_ops = max(1, body_len // max(1, self.value_len * 2 // 3))
        return approx_ops * self.cpu_per_op_us

    def handle_request(self, container, process, body: bytes, outcome: dict):
        kind, ops = protocol.decode_body(body)
        assert kind == "BATCH"
        fs = container.mounted_filesystems()[0] if self.persistence else None
        results = []
        for op, key, value in ops:
            if op == "set":
                data = value.encode()
                if self.persistence:
                    fs.write(self.store_path, key * self.value_len, data)
                    process.mm.write(self._index_page(container, key), str(key).encode())
                else:
                    process.mm.write(self.key_page(container, key), data)
                results.append("OK")
            else:  # get
                if self.persistence:
                    raw = fs.read(self.store_path, key * self.value_len, self.value_len)
                else:
                    raw = process.mm.read(self.key_page(container, key))
                results.append(raw.decode().rstrip("\x00"))
        return protocol.encode_body(("RESULTS", results))

    # ------------------------------------------------------------------ #
    # Client                                                               #
    # ------------------------------------------------------------------ #
    def start_clients(
        self,
        world: "World",
        stats: ClientStats,
        batch_size: int = 1000,
        window: int | None = None,
        run_until_us: int | None = None,
        n_requests: int | None = None,
    ) -> PipelinedClient:
        if window is None:
            window = self.client_window
        factory = KvRequestFactory(self, world, batch_size)
        client = PipelinedClient(
            world,
            self.ip,
            self.port,
            factory,
            stats,
            window=window,
            n_requests=n_requests,
            run_until_us=run_until_us,
        )
        client.start()
        return client


class KvRequestFactory:
    """Deterministic YCSB-like batch generator with a validating shadow map.

    The shadow is updated at request-*creation* time; because a connection's
    requests are processed in order and effects are exactly-once across
    failover (idempotent sets + output commit), every get's expected value
    is known when the batch is built.
    """

    def __init__(self, server: KvServer, world: "World", batch_size: int) -> None:
        self.server = server
        self.batch_size = batch_size
        self.rng = world.rng.stream(
            f"kv-client-{server.name}",  # nd: logged -- one stream per server
            owner="repro.workloads.kvstore",
        )
        self.shadow: dict[int, str] = {
            key: server._initial_value(key).decode() for key in range(server.n_keys)
        }
        # Sets sweep the key space cyclically (YCSB-style uniform update
        # coverage); gets draw uniformly at random.
        self._set_cursor = 0

    def __call__(self, i: int) -> tuple[bytes, Callable[[bytes], str | None], int]:
        ops = []
        expected = []  # each op's result: "OK" or the get's shadow value
        value_len = self.server.value_len
        for j in range(self.batch_size):
            if j % 2 == 0:
                key = self._set_cursor
                self._set_cursor = (self._set_cursor + 1) % self.server.n_keys
                value = f"k{key:06d}@{i:07d}.{j:04d}".ljust(value_len, ".")
                ops.append(("set", key, value))
                self.shadow[key] = value
                expected.append("OK")
            else:
                key = self.rng.randrange(self.server.n_keys)
                ops.append(("get", key, None))
                expected.append(self.shadow[key])
        body = protocol.encode_body(("BATCH", ops))

        def check(response: bytes) -> str | None:
            # The exact reply is the common case: one bytes comparison.  The
            # expected body is encoded here, not kept per in-flight batch.
            if response == protocol.encode_body(("RESULTS", expected)):
                return None
            kind, results = protocol.decode_body(response)
            if kind != "RESULTS":
                return f"bad response kind {kind!r}"
            gets = [r for r in results if r != "OK"]
            want_gets = [r for r in expected if r != "OK"]
            if len(gets) != len(want_gets):
                return f"expected {len(want_gets)} get results, saw {len(gets)}"
            for got, want in zip(gets, want_gets):
                if got != want:
                    return f"get mismatch: {got[:32]!r} != {want[:32]!r}"
            return "response bytes differ"

        return body, check, self.batch_size
