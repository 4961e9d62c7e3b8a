"""Per-run measurement records.

One :class:`RunMetrics` instance is shared by a deployment's agents.  The
fields map one-to-one onto the paper's evaluation artifacts:

* per-epoch stop time and dirty pages → Table III,
* per-epoch stop time and state size distributions → Table IV,
* backup agent CPU time → Table V,
* stopped-vs-runtime overhead split → Figure 3's stacked bars,
* recovery breakdown → Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.stats import mean, percentile

__all__ = ["EpochRecord", "RecoveryBreakdown", "RunMetrics"]


@dataclass
class EpochRecord:
    """Measurements of one checkpoint epoch."""

    epoch: int
    #: Wall time the container was stopped (freeze→thaw).
    stop_us: int
    #: Dirty pages captured this epoch.
    dirty_pages: int
    #: Bytes shipped to the backup for this epoch.
    state_bytes: int
    #: Simulation timestamp when the epoch completed.
    at_us: int = 0
    #: Components of the stop time (diagnostics/ablations).
    freeze_us: int = 0
    collect_us: int = 0
    sync_transfer_us: int = 0
    #: Whether the infrequent state came from the SSV-B cache.
    infrequent_from_cache: bool = False


@dataclass
class RecoveryBreakdown:
    """Table II components, microseconds.  Detection is not one of them:
    the backup cannot time its own heartbeat detector against the fault,
    so the experiment that injected it reads ``detector.fired_at``."""

    restore_us: int = 0
    arp_us: int = 0
    reconnect_us: int = 0
    #: HyCoR only: time spent replaying the shipped nondeterminism-log
    #: tail through the restored container before promotion (zero under
    #: NiLiCon — its recovery point *is* the last committed checkpoint).
    replay_us: int = 0
    total_recovery_us: int = 0


@dataclass
class RunMetrics:
    """All measurements of one deployment run."""

    epochs: list[EpochRecord] = field(default_factory=list)
    #: CPU microseconds consumed by the backup agent (Table V numerator).
    backup_cpu_us: int = 0
    #: CPU microseconds consumed by the primary agent (checkpoint work).
    primary_agent_cpu_us: int = 0
    #: Packets released by the output-commit machinery.
    packets_released: int = 0
    recovery: RecoveryBreakdown | None = None
    #: Run bounds for utilization math.
    started_at_us: int = 0
    ended_at_us: int = 0

    # -- recording -----------------------------------------------------------
    def record_epoch(self, record: EpochRecord) -> None:
        self.epochs.append(record)

    def charge_backup_cpu(self, us: int) -> None:
        self.backup_cpu_us += us

    def charge_primary_cpu(self, us: int) -> None:
        self.primary_agent_cpu_us += us

    # -- views ----------------------------------------------------------------
    @property
    def elapsed_us(self) -> int:
        return max(1, self.ended_at_us - self.started_at_us)

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    #: Optional [start, end) window for steady-state statistics; when set,
    #: per-epoch views only count epochs completed inside it (experiments
    #: set it to the measurement window so idle head/tail epochs don't
    #: dilute the per-epoch averages).
    window_start_us: int | None = None
    window_end_us: int | None = None

    def steady_epochs(self) -> list[EpochRecord]:
        """Epochs in the measurement window, excluding the initial full
        checkpoint.

        The paper's per-epoch statistics (Tables III/IV) are steady-state
        incremental checkpoints; the one-time full sync that seeds the
        backup is startup cost, not epoch behaviour.
        """
        epochs = self.epochs[1:] if len(self.epochs) > 1 else self.epochs
        if self.window_start_us is not None:
            epochs = [e for e in epochs if e.at_us >= self.window_start_us]
        if self.window_end_us is not None:
            epochs = [e for e in epochs if e.at_us < self.window_end_us]
        return epochs if epochs else self.epochs[-1:]

    def avg_stop_us(self) -> float:
        return mean([e.stop_us for e in self.steady_epochs()])

    def avg_dirty_pages(self) -> float:
        return mean([e.dirty_pages for e in self.steady_epochs()])

    def stop_percentile(self, p: float) -> float:
        return percentile([e.stop_us for e in self.steady_epochs()], p)

    def state_bytes_percentile(self, p: float) -> float:
        return percentile([e.state_bytes for e in self.steady_epochs()], p)

    def total_stop_us(self) -> int:
        return sum(e.stop_us for e in self.epochs)

    def stopped_fraction(self) -> float:
        """Fraction of run wall time the container spent stopped."""
        return self.total_stop_us() / self.elapsed_us

    def backup_core_utilization(self) -> float:
        """Table V: backup-agent CPU per wall second."""
        return self.backup_cpu_us / self.elapsed_us
