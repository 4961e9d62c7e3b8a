"""Deployment configuration: every NiLiCon optimization as a knob.

:meth:`NiliconConfig.table1_level` reconstructs the cumulative optimization
walk of Table I; :meth:`NiliconConfig.nilicon` is the fully-optimized
system; :meth:`NiliconConfig.basic` is the unoptimized port of CRIU+Remus
that the paper reports at 1940% overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal

from repro.criu.config import CriuConfig
from repro.sim.units import ms

__all__ = ["NiliconConfig", "TABLE1_LEVELS"]

#: Names of the cumulative Table I rows, in order.
TABLE1_LEVELS = (
    "basic",
    "+criu-optimizations",
    "+cache-infrequent-state",
    "+plug-input-blocking",
    "+netlink-vmas",
    "+staging-buffer",
    "+shm-page-transfer",
)


@dataclass(frozen=True)
class NiliconConfig:
    """All deployment-level knobs of a NiLiCon instance."""

    #: Execution-phase length (paper: 30 ms).
    epoch_execute_us: int = ms(30)
    #: Failure-detector heartbeat period (paper: 30 ms; with
    #: :data:`~repro.replication.heartbeat.MISS_THRESHOLD` consecutive
    #: misses => ~90 ms mean detection latency).
    heartbeat_interval_us: int = ms(30)
    #: Arm the failure detector.  Disabled for overhead-only measurements of
    #: unoptimized configurations whose stop times exceed the detection
    #: window (the paper's 90 ms detector is only compatible with the
    #: optimized system's tens-of-ms stops).
    detector_enabled: bool = True
    #: Checkpoint-path options (see :class:`~repro.criu.config.CriuConfig`).
    criu: CriuConfig = field(default_factory=CriuConfig.nilicon)
    #: Input blocking during checkpoint/restore: plug qdisc (43 us) vs
    #: firewall rules (7 ms + dropped-SYN stalls) — SSV-C.
    input_block: Literal["plug", "firewall"] = "plug"
    #: Memory staging buffer: resume the container after a local copy and
    #: transfer in the background (SSV-D deficiency 2) vs keep it stopped
    #: until the backup has received the pages.
    staging_buffer: bool = True
    #: Backup committed-page store: radix tree vs linked directory list
    #: (SSV-A, the most important CRIU optimization).
    page_store: Literal["radix", "list"] = "radix"
    #: Compress the state stream before transfer (Remus's checkpoint
    #: compression: dirty pages change little between epochs, so delta+RLE
    #: compresses well).  Trades primary/backup CPU per page for pair-link
    #: bytes.  Off in the paper's NiLiCon; provided for the ablation study.
    compress_transfer: bool = False
    #: Run the runtime state auditor (:mod:`repro.analysis.auditor`) at
    #: every epoch boundary and after every restore.  Costs real (host) CPU
    #: but zero simulated time; off by default, on in property tests.
    audit: bool = False
    #: REGRESSION KNOB — revert the ack-before-commit fix: the backup acks
    #: an epoch on receipt (before :meth:`BackupAgent._commit_state` runs)
    #: and recovery neither quiesces an in-flight commit nor rolls back the
    #: page store's open checkpoint.  A failover overlapping a commit then
    #: restores from a partially-applied page store while the acked epoch's
    #: output has already escaped.  Exists only so the fault campaign can
    #: demonstrate the race; never enable outside tests.
    unsafe_ack_before_commit: bool = False
    #: REGRESSION KNOB — one RNG consumer bypassing the NDLog: the primary
    #: perturbs its checkpoint timing with a draw from an unseeded,
    #: unlogged module-level generator (``replication/primary.py``).  The
    #: ndflow analyzer must flag the site statically (NDF001/NDF003,
    #: frozen in ``lint-baseline.json``) and the record→replay oracle
    #: must independently report a replay divergence — the same
    #: two-witness pattern the races/perf knobs use.  Never enable outside
    #: tests.
    unsafe_unlogged_draw: bool = False
    #: REGRESSION KNOB — revert the barrier-release fix: an ack pops the
    #: *oldest* egress barrier regardless of which epoch was acknowledged,
    #: so a duplicated or reordered ack releases a later epoch's output
    #: early (or strands acknowledged output behind the plug).  Exists only
    #: so the fault campaign can demonstrate the race; never enable outside
    #: tests.
    unsafe_release_oldest_barrier: bool = False
    #: Replication strategy backend (:mod:`repro.replication.modes`):
    #: ``"nilicon"`` releases output on checkpoint commit (the paper's
    #: output-commit-per-epoch), ``"hycor"`` ships a per-container
    #: nondeterminism log continuously and releases output on log commit,
    #: replaying the shipped tail on the backup at failover.
    mode: str = "nilicon"

    @classmethod
    def nilicon(cls) -> "NiliconConfig":
        return cls()

    @classmethod
    def hycor(cls) -> "NiliconConfig":
        """Fully-optimized checkpointing with HyCoR-style log shipping."""
        return cls(mode="hycor")

    @classmethod
    def basic(cls) -> "NiliconConfig":
        """Unoptimized CRIU + Remus port: Table I row 1."""
        return cls(
            criu=CriuConfig.stock(),
            input_block="firewall",
            staging_buffer=False,
            page_store="list",
        )

    @classmethod
    def table1_level(cls, level: int) -> "NiliconConfig":
        """Cumulative optimization level ``0..6`` (Table I rows, in order).

        0. basic implementation
        1. + optimize CRIU (radix page store, freeze polling, no proxies)
        2. + cache infrequently-modified in-kernel state
        3. + plug-based input blocking
        4. + VMAs via netlink
        5. + memory staging buffer
        6. + dirty pages via shared memory (full NiLiCon)
        """
        if not 0 <= level < len(TABLE1_LEVELS):
            raise ValueError(f"table1 level must be 0..{len(TABLE1_LEVELS) - 1}")
        config = cls.basic()
        if level >= 1:
            config = replace(
                config,
                page_store="radix",
                criu=config.criu.with_(freeze_poll=True, use_proxy_processes=False),
            )
        if level >= 2:
            config = replace(
                config,
                criu=config.criu.with_(cache_infrequent_state=True, fs_cache_mode="fgetfc"),
            )
        if level >= 3:
            config = replace(config, input_block="plug")
        if level >= 4:
            config = replace(config, criu=config.criu.with_(vma_source="netlink"))
        if level >= 5:
            config = replace(config, staging_buffer=True)
        if level >= 6:
            config = replace(config, criu=config.criu.with_(parasite_transport="shm"))
        return config

    def with_(self, **kw) -> "NiliconConfig":
        return replace(self, **kw)
