"""What the benchmark measures, declared once.

``BENCHMARK.json`` at the repository root is the source of every metric's
name, unit, direction and bound; this module adds what that file has no
room for: the layers, the boundary functions the traced repeat times, the
work counters it harvests, and, for each per-layer metric, the end-to-end
metric and workloads it should move (written before any optimisation).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
#: ``bench run``: untraced repeats per workload (end-to-end numbers) and
#: traced repeats (per-layer numbers).
UNTRACED_REPEATS = 5
TRACED_REPEATS = 1

#: ``setup_s`` may worsen by its share bound or by this many seconds,
#: whichever is larger: set-up is a few hundred ms, where one scheduler
#: hiccup alone is a double-digit share.
SETUP_FLOOR_S = 0.030

#: Bound on every simulated output (``sim_*``).  They repeat exactly for a
#: given seed; the bound only keeps a sub-percent model fix from reading
#: as a regression.
SIM_OUTPUT_BOUND = 0.02


class SimOutput(NamedTuple):
    """A simulated output: pinned by ``sim_digest``, not a host metric."""

    unit: str
    #: ``lower``/``higher``, or empty for a value that only describes another.
    better: str


#: Defined in bench/README.md.
SIM_OUTPUTS = {
    "sim_tput": SimOutput("1/s", "higher"),
    "sim_lat_p50_ms": SimOutput("ms", "lower"),
    "sim_lat_tail_ms": SimOutput("ms", "lower"),
    "sim_lat_tail_pct": SimOutput("pct", ""),
    "sim_lat_n": SimOutput("count", ""),
    "sim_stop_ms_p50": SimOutput("ms", "lower"),
    "sim_recovery_ms": SimOutput("ms", "lower"),
}

#: The packages under ``src/repro`` that count as layers, plus ``harness``:
#: bench frames and anything that never reaches a layer frame.
LAYERS = (
    "sim",
    "kernel",
    "container",
    "criu",
    "replication",
    "net",
    "workloads",
    "traffic",
    "fleet",
    "metrics",
    "analysis",
    "harness",
)


class Boundary(NamedTuple):
    """One function the traced repeat wraps with a call counter and timer."""

    stem: str
    module: str
    #: ``Class.attr`` or a module-level function name.
    qualname: str


BOUNDARIES = (
    Boundary("sim.timeout", "repro.sim.engine", "Engine.timeout"),
    Boundary("sim.process", "repro.sim.engine", "Engine.process"),
    Boundary("kernel.find_vma", "repro.kernel.mm", "AddressSpace.find_vma"),
    Boundary("kernel.mm_write", "repro.kernel.mm", "AddressSpace.write"),
    Boundary("kernel.mm_read", "repro.kernel.mm", "AddressSpace.read"),
    Boundary("kernel.tcp_send", "repro.kernel.tcp", "TcpSocket.send"),
    Boundary("kernel.bridge_forward", "repro.kernel.netdev", "Bridge.forward"),
    Boundary("container.heap_vma", "repro.container.runtime", "Container.heap_vma"),
    Boundary("container.run_slice", "repro.container.runtime", "Container.run_slice"),
    Boundary("criu.checkpoint", "repro.criu.checkpoint", "CheckpointEngine.checkpoint"),
    Boundary("criu.restore", "repro.criu.restore", "RestoreEngine.restore"),
    Boundary("criu.read_image_files", "repro.criu.imagefiles", "read_image_files"),
    Boundary("criu.write_image_files", "repro.criu.imagefiles", "write_image_files"),
    Boundary("criu.store_page", "repro.criu.pagestore", "RadixTreePageStore.store_page"),
    Boundary(
        "replication.digest_image",
        "repro.replication.statecache",
        "PageDigestCache.digest_image",
    ),
    Boundary(
        "replication.verify_digests",
        "repro.replication.statecache",
        "verify_page_digests",
    ),
    Boundary(
        "replication.release_epoch",
        "repro.replication.netbuffer",
        "NetworkBuffer.release_epoch",
    ),
    Boundary("net.endpoint_send", "repro.net.link", "Endpoint.send"),
    Boundary("workloads.decode_body", "repro.workloads.protocol", "decode_body"),
    Boundary("workloads.encode_body", "repro.workloads.protocol", "encode_body"),
    Boundary(
        "fleet.failstop",
        "repro.fleet.controller",
        "FleetController.inject_host_failstop",
    ),
    Boundary("fleet.host_load", "repro.fleet.pool", "HostPool.load"),
    Boundary("metrics.hist_record", "repro.metrics.histogram", "LatencyHistogram.record"),
)

#: Work counters of the simulated window: the profiler's engine counters
#: and the always-on object counters, summed over every container and pair.
COUNTERS = (
    "sim.events",
    "sim.heap_push",
    "sim.resumes",
    "kernel.pages_written",
    "kernel.faults",
    "replication.pages_digested",
    "replication.digest_cache_hits",
    "criu.pages_stored",
    "fleet.slot_ops",
)


class Prediction(NamedTuple):
    """Which end-to-end metric a group of per-layer metrics should move."""

    #: Metric names, or stems ending in ``.`` that cover ``.calls`` and
    #: ``.incl_pct``.
    metrics: tuple[str, ...]
    moves: str
    on: str
    flat_on: str


PREDICTIONS = (
    Prediction(
        ("workloads.decode_body.", "workloads.encode_body.", "workloads.busy_pct"),
        "`wall_s`",
        "kv; failover a little (restore parses the image files)",
        "traffic, compute",
    ),
    Prediction(
        ("kernel.find_vma.", "kernel.mm_write.", "kernel.mm_read.", "kernel.busy_pct"),
        "`wall_s`, `setup_s`",
        "kv, compute (`setup_s`: 49k warm-up writes)",
        "traffic",
    ),
    Prediction(
        ("container.heap_vma.", "container.run_slice.", "container.busy_pct"),
        "`wall_s`",
        "kv, compute",
        "traffic",
    ),
    Prediction(
        (
            "sim.timeout.",
            "sim.process.",
            "sim.busy_pct",
            "sim.host_us_per_event",
            "sim.events",
            "sim.heap_push",
            "sim.resumes",
        ),
        "`wall_s`",
        "traffic, failover; compute less (a fifth of its samples)",
        "kv",
    ),
    Prediction(
        (
            "kernel.tcp_send.",
            "kernel.bridge_forward.",
            "net.endpoint_send.",
            "net.busy_pct",
            "traffic.busy_pct",
            "metrics.hist_record.",
            "metrics.busy_pct",
        ),
        "`wall_s`",
        "traffic, failover",
        "compute",
    ),
    Prediction(
        (
            "replication.digest_image.",
            "replication.verify_digests.",
            "replication.release_epoch.",
            "replication.busy_pct",
            "replication.digest_hit_ratio",
            "replication.pages_digested",
            "replication.digest_cache_hits",
        ),
        "`wall_s`",
        "compute",
        "traffic",
    ),
    Prediction(
        (
            "criu.restore.",
            "criu.read_image_files.",
            "criu.write_image_files.",
            "fleet.failstop.",
            "fleet.host_load.",
            "fleet.busy_pct",
            "fleet.slot_ops",
        ),
        "`wall_s`; guards `sim_recovery_ms`",
        "failover",
        "traffic",
    ),
    Prediction(
        ("criu.checkpoint.", "criu.store_page.", "criu.busy_pct"),
        "`wall_s`",
        "traffic, failover (12 pairs checkpoint every epoch)",
        "kv",
    ),
    Prediction(
        ("kernel.pages_written", "kernel.faults", "criu.pages_stored"),
        "`peak_rss_mb`",
        "compute, failover",
        "kv",
    ),
    Prediction(
        ("analysis.busy_pct", "harness.busy_pct", "harness.samples", "harness.trace_overhead"),
        "`wall_s` (instrumentation that is off must cost ~0)",
        "–",
        "all",
    ),
)


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced repeat reports, in output order."""
    names = [f"{layer}.busy_pct" for layer in LAYERS]
    names.append("harness.samples")
    for boundary in BOUNDARIES:
        names += [f"{boundary.stem}.calls", f"{boundary.stem}.incl_pct"]
    names += list(COUNTERS)
    names += [
        "sim.host_us_per_event",
        "replication.digest_hit_ratio",
        "harness.trace_overhead",
    ]
    return names


def prediction_for(metric: str) -> Prediction:
    """The one prediction row that covers *metric*."""
    rows = [
        row
        for row in PREDICTIONS
        if any(
            metric.startswith(m) if m.endswith(".") else metric == m
            for m in row.metrics
        )
    ]
    if len(rows) != 1:
        raise KeyError(f"{metric}: {len(rows)} prediction rows cover it, want 1")
    return rows[0]


def prediction_table() -> str:
    """The README's layer -> end-to-end metric -> workload table."""
    lines = [
        "| per-layer metrics | moves | on | predicted flat on |",
        "|---|---|---|---|",
    ]
    for row in PREDICTIONS:
        names = ", ".join(
            f"`{m}*`" if m.endswith(".") else f"`{m}`" for m in row.metrics
        )
        lines.append(f"| {names} | {row.moves} | {row.on} | {row.flat_on} |")
    return "\n".join(lines)


def load_benchmark(root: Path = ROOT) -> dict[str, Any]:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def allowed_worsening(metric: dict[str, Any], parent_median: float) -> float:
    """How much *metric* may worsen from *parent_median* before it counts
    as a regression: its share bound, floored for ``setup_s``."""
    allowed = metric["bound"] * abs(parent_median)
    if metric["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    return allowed
