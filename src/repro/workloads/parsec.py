"""PARSEC-like compute workloads: streamcluster and swaptions (paper §VI).

Non-interactive CPU/memory benchmarks measured by completion time.  Each of
the ``n_threads`` workers burns fixed CPU per work unit and dirties pages in
its partition at a calibrated rate; progress counters live in container
memory so a restored container resumes exactly from its checkpointed
progress (the §VII-A validation compares the final output against a golden
run).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.container.spec import ContainerSpec, ProcessSpec
from repro.workloads.base import ComputeWorkload

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container
    from repro.net.world import World

__all__ = ["ParsecWorkload"]

#: Start of the data region (the first pages hold progress counters).
DATA_BASE = 64


class ParsecWorkload(ComputeWorkload):
    """A partitioned data-parallel kernel."""

    def __init__(
        self,
        name: str,
        n_threads: int = 4,
        resident_pages: int = 48_000,
        dirty_pages_per_epoch: int = 300,
        unit_cpu_us: int = 300,
        total_units: int = 4000,
        mapped_files: int = 35,
    ) -> None:
        self.name = name
        self.n_workers = n_threads
        self.resident_pages = resident_pages
        self.unit_cpu_us = unit_cpu_us
        self.total_units = total_units
        self.mapped_files = mapped_files
        # Calibration: pages dirtied per work unit so that the per-epoch
        # (30 ms) dirty total matches the target at full thread parallelism.
        units_per_epoch = max(1, n_threads * (30_000 // unit_cpu_us))
        self.pages_per_unit = dirty_pages_per_epoch / units_per_epoch

    def spec(self) -> ContainerSpec:
        return ContainerSpec(
            name=self.name,
            ip=self.ip,
            processes=[
                ProcessSpec(
                    comm=self.name,
                    n_threads=self.n_workers,
                    heap_pages=DATA_BASE + self.resident_pages + self.n_workers,
                    n_mapped_files=self.mapped_files,
                )
            ],
            n_cores=self.n_workers,
            cgroup_attributes={"cpu.shares": 1024},
        )

    def warmup(self, world: "World", container: "Container") -> None:
        """Touch the input data set so the resident set is steady-state."""
        process = container.processes[0]
        base = container.heap_vma.start + DATA_BASE
        for i in range(self.resident_pages):
            process.mm.write(base + i, b"in")

    def _partition(self, container: "Container", worker: int) -> tuple[int, int]:
        per_worker = self.resident_pages // self.n_workers
        start = container.heap_vma.start + DATA_BASE + worker * per_worker
        return start, per_worker

    def unit_effects(self, container, process, worker: int, unit: int) -> None:
        start, span = self._partition(container, worker)
        # Fractional pages/unit: accumulate and write on whole-page boundaries.
        before = int(unit * self.pages_per_unit)
        after = int((unit + 1) * self.pages_per_unit)
        for k in range(before, after):
            process.mm.write(start + k % span, f"u{unit}w{worker}".encode())

    def result_signature(self, container: "Container") -> dict[int, bytes]:
        """Final output pages (compared against a golden stock run)."""
        out = {}
        process = container.processes[0]
        for worker in range(self.n_workers):
            start, span = self._partition(container, worker)
            for k in range(min(span, 8)):
                out[start + k] = process.mm.read(start + k)
        return out
