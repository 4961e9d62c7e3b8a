"""Ablations beyond the paper's tables.

The paper reports the *cumulative* optimization walk (Table I).  These
experiments isolate additional design claims:

* **per-optimization leave-one-out** — disable one optimization from the
  full system and measure the damage, showing each knob still pays its way
  at the optimized operating point;
* **epoch-length sweep** — the §II-A tension: shorter epochs mean lower
  output-buffering latency but more checkpoints per second (overhead);
* **detection-interval sweep** — heartbeat period vs detection latency
  (and the false-positive margin the keep-alive provides);
* **repaired-socket RTO patch (§V-E)** — recovery latency with and without
  the 2-line kernel patch.
"""

from __future__ import annotations

from repro.experiments.common import (
    open_cell,
    overhead,
    run_compute_benchmark,
    run_server_benchmark,
)
from repro.replication.config import NiliconConfig
from repro.sim.units import ms, sec

__all__ = [
    "run_compression_ablation",
    "run_detection_sweep",
    "run_epoch_sweep",
    "run_leave_one_out",
    "run_rto_patch_ablation",
]

#: Leave-one-out variants: label -> config transformer.
LEAVE_ONE_OUT = {
    "full": lambda c: c,
    "-radix-pagestore": lambda c: c.with_(page_store="list"),
    "-freeze-polling": lambda c: c.with_(criu=c.criu.with_(freeze_poll=False)),
    "-state-cache": lambda c: c.with_(criu=c.criu.with_(cache_infrequent_state=False)),
    "-plug-input-block": lambda c: c.with_(input_block="firewall"),
    "-netlink-vmas": lambda c: c.with_(criu=c.criu.with_(vma_source="smaps")),
    "-staging-buffer": lambda c: c.with_(staging_buffer=False),
    "-shm-transfer": lambda c: c.with_(criu=c.criu.with_(parasite_transport="pipe")),
}


def run_leave_one_out(workload: str = "streamcluster", seed: int = 1) -> list[dict]:
    stock = run_compute_benchmark(workload, "stock", seed=seed)
    rows = []
    for label, transform in LEAVE_ONE_OUT.items():
        config = transform(NiliconConfig.nilicon()).with_(detector_enabled=False)
        result = run_compute_benchmark(
            workload, "nilicon", seed=seed, config=config, timeout_us=sec(300)
        )
        rows.append(
            {
                "variant": label,
                "overhead_pct": 100 * overhead(stock, result),
                "avg_stop_ms": result.metrics.avg_stop_us() / 1000,
            }
        )
    return rows


def run_epoch_sweep(
    epoch_lengths_ms=(10, 30, 60, 120), workload: str = "streamcluster", seed: int = 1
) -> list[dict]:
    stock = run_compute_benchmark(workload, "stock", seed=seed)
    rows = []
    for epoch_ms in epoch_lengths_ms:
        config = NiliconConfig.nilicon().with_(
            epoch_execute_us=ms(epoch_ms), detector_enabled=False
        )
        result = run_compute_benchmark(
            workload, "nilicon", seed=seed, config=config, timeout_us=sec(300)
        )
        rows.append(
            {
                "epoch_ms": epoch_ms,
                "overhead_pct": 100 * overhead(stock, result),
                "avg_stop_ms": result.metrics.avg_stop_us() / 1000,
                "avg_dirty": result.metrics.avg_dirty_pages(),
            }
        )
    return rows


def _failover_run(
    config: NiliconConfig, seed: int, precise_post_commit: bool = False
) -> dict:
    """One instrumented failover of the Net echo benchmark.

    With *precise_post_commit*, the fail-stop is injected within
    microseconds of the backup acknowledging an epoch — i.e. inside the
    window where that epoch's responses are committed on the backup but not
    yet released by the primary.  Those responses reach the client only
    through the restored sockets' retransmission timers, which is exactly
    the path §V-E's minimum-RTO patch accelerates.
    """
    cell = open_cell("net", "nilicon", seed, config=config)
    world, deployment, stats = cell.world, cell.deployment, cell.stats
    cell.start()
    cell.clients_at(ms(400), run_until_us=sec(5), gap_us=ms(5))

    injected_at = []

    def inject():
        yield world.engine.timeout(ms(900))
        if precise_post_commit:
            target = deployment.backup_agent.received_epoch + 1
            while deployment.backup_agent.received_epoch < target:
                yield world.engine.timeout(10)
        injected_at.append(world.now)
        deployment.inject_fail_stop()

    world.engine.process(inject())
    world.run(until=sec(8))
    assert deployment.failed_over and stats.ok
    detector = deployment.backup_agent.detector
    spike = max(stats.latencies_us)
    baseline = sorted(stats.latencies_us)[len(stats.latencies_us) // 2]
    return {
        "detection_ms": (detector.fired_at - injected_at[0]) / 1000,
        "interruption_ms": (spike - baseline) / 1000,
        "restore_ms": deployment.metrics.recovery.restore_us / 1000,
    }


def run_rto_patch_ablation(seed: int = 1) -> list[dict]:
    rows = []
    for patched in (True, False):
        config = NiliconConfig.nilicon()
        config = config.with_(criu=config.criu.with_(repair_rto_patch=patched))
        row = _failover_run(config, seed, precise_post_commit=True)
        row["rto_patch"] = patched
        rows.append(row)
    return rows


def run_compression_ablation(seed: int = 1) -> list[dict]:
    """Transfer compression on/off: pair-link bytes vs CPU (Remus-style)."""
    rows = []
    for compressed in (False, True):
        config = NiliconConfig.nilicon().with_(compress_transfer=compressed)
        result = run_server_benchmark(
            "redis", "nilicon", duration_us=sec(2), seed=seed, config=config
        )
        rows.append(
            {
                "compressed": compressed,
                "throughput": result.throughput,
                "link_mb_per_s": result.extra.get("link_mb_per_s", 0.0),
                "backup_cores": result.metrics.backup_core_utilization(),
            }
        )
    return rows


def run_detection_sweep(intervals_ms=(10, 30, 90), seed: int = 1) -> list[dict]:
    rows = []
    for interval in intervals_ms:
        config = NiliconConfig.nilicon().with_(heartbeat_interval_us=ms(interval))
        row = _failover_run(config, seed)
        row["interval_ms"] = interval
        rows.append(row)
    return rows
