"""HyCoR-mode replication: log shipping, log-commit release, backup replay.

NiLiCon releases a packet only after the *checkpoint epoch* that produced
it is durable on the backup — worst case a whole epoch (~30 ms) of added
latency.  HyCoR (Zhou & Tamir) decouples output release from checkpoint
frequency: the primary continuously ships a per-container nondeterminism
log, and a packet is released as soon as the *log flush* that covers it is
durable.  On failover the backup restores the last committed checkpoint,
then **replays** the shipped log tail through the restored container to
re-reach the state whose output already escaped, before going live.

Three pieces, all driven by :mod:`repro.replication.modes`:

* :class:`LogShipper` — installs an :class:`~repro.kernel.mm.AddressSpace`
  ``capture_hook`` per process, so every page write lands in the open
  window of a per-process stream (``mm<i>``); a flush loop closes the
  window every :attr:`LogShipper.FLUSH_US` (3 ms), inserts a
  flush-sequence egress barrier, and ships the window (entries + their
  :func:`~repro.sim.ndlog.entries_digest`) to the backup.  The shipper
  keeps nothing past the open window: the checkpoint's frozen flush
  sequence is what bounds the replay tail.
* :class:`HycorPrimaryAgent` — checkpoints exactly like NiLiCon but inserts
  no epoch barriers and treats checkpoint acks as replay-truncation info
  only; output release happens on ``log_ack``.
* :class:`HycorBackupAgent` — makes flushes durable strictly in sequence
  (verifying each window digest before acking), truncates the stored log
  when a checkpoint commits past it, and replays the tail at failover —
  detecting log gaps and replay divergence via the registered
  ``hycor.*`` fault points.

Scope (v1, documented in ``docs/hycor.md``): the log captures *memory*
writes by value, so replay is per-stream deterministic and idempotent;
filesystem writes remain epoch-commit-gated through DRBD, and cross-process
same-page races are outside the replay guarantee (the race detector covers
those).  Restored TCP connections necessarily lag the released output
stream, so recovery aborts them post-replay and lets clients reconnect —
their next segment hits a demux miss and draws an RST.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.replication.backup import BackupAgent
from repro.replication.primary import PrimaryAgent
from repro.sim.access import record_access
from repro.sim.engine import Interrupt
from repro.sim.faults import coverage_mark, fault_point
from repro.sim.ndlog import entries_digest
from repro.sim.trace import trace
from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container

__all__ = [
    "HycorBackupAgent",
    "HycorPrimaryAgent",
    "LogShipper",
    "hycor_flush_seq",
]


def hycor_flush_seq(container: "Container") -> int:
    """Last flush sequence ever shipped for *container* (0 = none).

    Persisted on the container object by the shipper so an adopted
    container's new pairing (backup-host loss re-pair, migration cutover)
    continues the flush numbering — its stale egress barriers carry old
    sequence numbers and must stay strictly below every new fence.
    """
    return getattr(container, "_hycor_flush_seq", 0)


class _WriteCapture:
    """Per-process mm observer feeding one stream of the shipper's open
    window by value."""

    #: Host-side recording machinery: invisible to the nondeterminism-flow
    #: analyzer and never part of checkpointed state.
    __nd_exempt__ = True
    __ckpt_ignore__ = True

    def __init__(self, window: dict[str, list[list]], totals: dict[str, int],
                 stream: str) -> None:
        self.window = window
        self.totals = totals
        self.stream = stream

    def page_written(self, page_idx: int, token: bytes) -> None:  # hot: per-page -- every protected write funnels through here in hycor mode
        stream = self.stream
        seq = self.totals.get(stream, 0)
        self.totals[stream] = seq + 1
        self.window.setdefault(stream, []).append(
            [stream, seq, "write", (page_idx, token)])


class LogShipper:
    """Primary-side half of HyCoR: capture writes, flush windows, ship them.

    One instance per :class:`HycorPrimaryAgent`.  ``attach()`` installs the
    capture hooks (at agent start, so pre-deployment warmup writes — which
    the initial full checkpoint covers anyway — don't bloat the log);
    ``flush_loop()`` runs as an agent process and dies with it.
    """

    __nd_exempt__ = True
    __ckpt_ignore__ = True

    #: Estimated wire bytes per shipped entry (sequence number, method tag
    #: and the page token reference; the real system ships syscall-result
    #: records of comparable size).
    ENTRY_WIRE_BYTES = 48
    #: Fixed framing bytes per flush message.
    FLUSH_WIRE_BYTES = 64
    #: Log-flush period: the open window closes and ships every this many
    #: microseconds, so released output waits roughly one flush interval
    #: plus the log-commit round trip instead of up to a whole epoch.
    FLUSH_US = ms(3)

    def __init__(self, engine, container: "Container", endpoint, netbuffer) -> None:
        self.engine = engine
        self.container = container
        self.endpoint = endpoint
        self.netbuffer = netbuffer
        #: Global monotonic flush sequence; continues an adopted
        #: container's numbering (see :func:`hycor_flush_seq`).
        self.seq = hycor_flush_seq(container)
        #: The open window: stream -> ``[stream, seq, "write", (page,
        #: token)]`` entries captured since the last flush.
        self._window: dict[str, list[list]] = {}
        #: Entries ever captured per stream, so ``seq`` is global per stream.
        self._totals: dict[str, int] = {}
        self.flushes_sent = 0
        self.entries_shipped = 0
        self._attached = False

    # -- capture ----------------------------------------------------------
    def attach(self) -> None:
        """Install the per-process write-capture hooks."""
        self._attached = True
        for pidx, process in enumerate(self.container.processes):
            process.mm.capture_hook = _WriteCapture(
                self._window, self._totals, f"mm{pidx}")

    def detach(self) -> None:
        if not self._attached:
            return
        self._attached = False
        for process in self.container.processes:
            process.mm.capture_hook = None

    # -- flushing ---------------------------------------------------------
    def flush_loop(self) -> Generator[Any, Any, None]:
        try:
            while not self.container.dead:  # ft: bounded -- exits on container death each period; stop/crash interrupt it
                yield self.engine.timeout(self.FLUSH_US)
                if self.container.dead:
                    return
                self._flush()
        except Interrupt:
            # Fail-stop or teardown: the shipper dies with its agent.
            coverage_mark(self.engine, "handler", "hycor.flush_interrupt")
            return

    def _flush(self) -> None:
        """Close the open window and ship it.

        Empty windows ship too (framing bytes only): the flush fence still
        advances, so output generated without memory writes — pure packet
        traffic — is released on the same cadence.
        """
        window = self._window
        entries = [entry for stream in sorted(window) for entry in window[stream]]
        window.clear()
        crc = entries_digest(entries)
        self.seq += 1
        seq = self.seq
        # Persist for adoption: a successor pairing must fence above this.
        self.container._hycor_flush_seq = seq
        # Fence first: every packet buffered so far depends only on writes
        # at or before this window, so the flush's durability may release it.
        self.netbuffer.insert_epoch_barrier(seq)
        fault_point(self.engine, "hycor.mid_log_ship", seq=seq)
        self.endpoint.send(
            {
                "kind": "ndlog",
                "seq": seq,
                "entries": entries,
                "crc": crc,
            },
            size_bytes=self.FLUSH_WIRE_BYTES + self.ENTRY_WIRE_BYTES * len(entries),
        )
        self.flushes_sent += 1
        self.entries_shipped += len(entries)
        trace(self.engine, "hycor", "log_flushed", seq=seq, entries=len(entries))


class HycorPrimaryAgent(PrimaryAgent):
    """NiLiCon's epoch loop with log shipping and log-commit release."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.shipper = LogShipper(
            engine=self.engine,
            container=self.container,
            endpoint=self.endpoint,
            netbuffer=self.netbuffer,
        )
        #: Highest checkpoint epoch the backup has committed.  Replay-
        #: truncation bookkeeping only: under HyCoR a checkpoint ack
        #: carries *no* release authority.
        self.checkpoint_acked = self.epoch - 1
        #: Flush sequence closed at the current cycle's freeze; shipped in
        #: the state message so the backup replays exactly past it.
        self._frozen_log_seq = self.shipper.seq

    def start(self) -> None:
        super().start()
        self.shipper.attach()
        self._processes.append(
            self.engine.process(self.shipper.flush_loop(), name="hycor-log-shipper")
        )

    def stop(self) -> None:
        super().stop()
        self.shipper.detach()

    def crash(self) -> None:
        super().crash()
        self.shipper.detach()

    # -- strategy hooks ---------------------------------------------------
    def _insert_output_barrier(self, epoch: int) -> None:
        # No per-epoch egress fence: release authority lives with the log
        # flushes.  The freeze instead pins the flush sequence this
        # checkpoint supersedes — every entry at or below it is captured by
        # the frozen image, so a replay from it starts past that flush.
        self._frozen_log_seq = self.shipper.seq

    def _state_extra(self, epoch: int) -> dict:
        return {"log_seq": self._frozen_log_seq}

    def _on_ack(self, epoch: int) -> None:
        # Checkpoint durable: the backup truncated its stored log tail.
        # Wake any receipt waiters, but release nothing.
        if epoch > self.checkpoint_acked:
            self.checkpoint_acked = epoch
        self._wake_receipts(epoch)

    def _handle_message(self, kind: str, message: dict) -> None:
        if kind != "log_ack":
            return
        seq = message["seq"]
        engine = self.engine
        netbuffer = self.netbuffer
        trace(engine, "hycor", "log_acked", seq=seq)
        acked = netbuffer.acked_epoch
        if seq > acked:
            record_access(engine, netbuffer, "acked_epoch", "w",
                          site="hycor.log_ack")
            netbuffer.acked_epoch = acked = seq
        # Cumulative, fence-id-addressed release — same discipline as
        # NiLiCon's epoch acks, just keyed by flush sequence.
        released = netbuffer.release_epoch(acked)
        self.metrics.packets_released += released


class HycorBackupAgent(BackupAgent):
    """Backup agent that stores the shipped log and replays it at failover."""

    def __init__(self, initial_log_seq: int = 0, **kwargs) -> None:
        super().__init__(**kwargs)
        #: Durable flush store: seq -> flush message, strictly consecutive
        #: above the committed checkpoint's superseded prefix.
        self._log_store: dict[int, dict] = {}
        #: Highest flush made durable (consecutive from ``initial_log_seq``).
        self.durable_seq = initial_log_seq
        #: Flushes that arrived beyond a sequence hole, parked un-acked.
        self._future_flushes: dict[int, dict] = {}
        #: Flush sequence the last committed checkpoint supersedes (replay
        #: base); None until the first commit.
        self._committed_log_seq: int | None = None
        #: Last flush actually applied during replay (the durability
        #: horizon the oracles compare released output against).
        self.replay_horizon_seq: int | None = None
        self.log_flushes_received = 0
        self.log_crc_mismatches = 0
        self.replayed_flushes = 0
        self.replayed_entries = 0
        self.replay_divergences = 0
        self.log_gap_detected = False

    # -- receive path -----------------------------------------------------
    def _dispatch_extra(self, message: dict) -> None:
        if message.get("kind") != "ndlog":
            return
        # Host-side append of a tiny record: no simulated time charged, so
        # heartbeats keep flowing through the dispatcher during bursts.
        self._on_ndlog(message)

    def _on_ndlog(self, message: dict) -> None:
        seq = message["seq"]
        self.log_flushes_received += 1
        if seq <= self.durable_seq:
            # Duplicate of a durable flush: re-ack (heals a lost log_ack).
            self._send_log_ack(seq)
            return
        if seq > self.durable_seq + 1:
            # Sequence hole (dropped/delayed flush): park, never ack past
            # the gap — released output may only depend on a consecutive
            # durable prefix.
            record_access(self.engine, self, "log_store", "w", key=seq,
                          site="hycor.park_future_flush")
            self._future_flushes[seq] = message
            return
        if not self._accept_flush(seq, message):
            return
        while self.durable_seq + 1 in self._future_flushes:
            next_seq = self.durable_seq + 1
            record_access(self.engine, self, "log_store", "w", key=next_seq,
                          site="hycor.unpark_flush")
            if not self._accept_flush(next_seq, self._future_flushes.pop(next_seq)):
                break

    def _accept_flush(self, seq: int, message: dict) -> bool:
        if entries_digest(message["entries"]) != message["crc"]:
            # A window that fails verification is never made durable or
            # acknowledged, so no released output can come to depend on it.
            self.log_crc_mismatches += 1
            trace(self.engine, "hycor", "log_flush_refused", seq=seq)
            return False
        record_access(self.engine, self, "log_store", "w", key=seq,
                      site="hycor.log_append")
        self._log_store[seq] = message
        self.durable_seq = seq
        # Durability-ledger write: the primary's flush-barrier release for
        # this sequence must happen-after this point.
        record_access(self.engine, f"durable:{self.spec.name}", "log_commit",
                      "w", key=seq, site="hycor.log_append")
        self._send_log_ack(seq)
        return True

    def _send_log_ack(self, seq: int) -> None:
        self.endpoint.send({"kind": "log_ack", "seq": seq}, size_bytes=64)
        trace(self.engine, "hycor", "log_ack_sent", seq=seq)

    def _after_commit(self, epoch: int, message: dict) -> None:
        base = message.get("log_seq")
        if base is None:
            return
        self._committed_log_seq = base
        # The checkpoint captured every entry at or below its base flush:
        # the stored prefix is dead weight, and any sequence hole at or
        # below the base is healed — the checkpoint supersedes it.
        for seq in [s for s in self._log_store if s <= base]:
            del self._log_store[seq]
        for seq in [s for s in self._future_flushes if s <= base]:
            del self._future_flushes[seq]
        if base > self.durable_seq:
            # Write the ledger records the superseded sequences never got,
            # so their (checkpoint-authorized) barrier drains stay ordered.
            for seq in range(self.durable_seq + 1, base + 1):
                record_access(self.engine, f"durable:{self.spec.name}",
                              "log_commit", "w", key=seq,
                              site="hycor.commit_supersede")
            self.durable_seq = base
            while self.durable_seq + 1 in self._future_flushes:
                next_seq = self.durable_seq + 1
                record_access(self.engine, self, "log_store", "w",
                              key=next_seq, site="hycor.unpark_flush")
                if not self._accept_flush(
                    next_seq, self._future_flushes.pop(next_seq)
                ):
                    break

    # -- failover replay --------------------------------------------------
    def _replay_after_restore(
        self, container: "Container"
    ) -> Generator[Any, Any, int]:
        engine = self.engine
        replay_start = engine.now
        if self._future_flushes:
            # A hole in the shipped log survived to failover (the flush
            # died with the primary or the link).  Nothing past the gap was
            # ever acknowledged — so nothing released depends on it — but
            # it cannot be replayed either: discard it.
            self.log_gap_detected = True
            trace(engine, "recovery", "log_gap", durable=self.durable_seq,
                  parked=len(self._future_flushes))
            record_access(engine, self, "log_store", "w",
                          site="hycor.discard_gap_tail")
            self._future_flushes.clear()
            stall = fault_point(engine, "hycor.log_gap", seq=self.durable_seq)
            if stall:
                yield engine.timeout(stall)
        base = self._committed_log_seq
        if base is None:
            return 0
        self.replay_horizon_seq = base
        costs = self.kernel.costs
        for seq in range(base + 1, self.durable_seq + 1):
            message = self._log_store.get(seq)
            if message is None:
                break  # below the store floor (already superseded)
            if entries_digest(message["entries"]) != message["crc"]:
                # Stored window fails re-verification: replay diverged from
                # what was shipped.  Promote from the last flush that
                # verifies rather than apply state we cannot trust.
                self.replay_divergences += 1
                trace(engine, "recovery", "replay_divergence", seq=seq)
                stall = fault_point(engine, "hycor.replay_divergence", seq=seq)
                if stall:
                    yield engine.timeout(stall)
                break
            for stream, _seq, method, value in message["entries"]:
                if method != "write" or not stream.startswith("mm"):
                    continue
                page_idx, token = value
                container.processes[int(stream[2:])].mm.write(page_idx, token)
                self.replayed_entries += 1
            self.replayed_flushes += 1
            self.replay_horizon_seq = seq
            if message["entries"]:
                # Re-applying logged writes is real restore-path time —
                # HyCoR's recovery-latency cost for its lower overhead.
                yield self._charge(costs.page_copy_cost(len(message["entries"])))
        # The restored sockets' streams lag the released output (replies
        # escaped on log commit, past the checkpoint's socket state), so a
        # resumed conversation would deadlock on bytes neither side will
        # send again.  Abort the connections — once the bridge re-attaches,
        # a client's next segment hits a demux miss, draws an RST and
        # reconnects against the replayed state.  Listeners stay registered
        # so those reconnects succeed.
        aborted = 0
        for sock in list(container.stack.connections.values()):
            sock.abort()
            aborted += 1
        trace(engine, "recovery", "log_replayed",
              flushes=self.replayed_flushes, entries=self.replayed_entries,
              connections_reset=aborted)
        return engine.now - replay_start
