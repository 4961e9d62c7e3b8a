"""Tie-break schedule fuzzing and the race pass (``repro races``).

The engine orders same-timestamp events by insertion sequence — a default
the protocol must not *depend* on.  :func:`run_races` proves that
mechanically in one pass, from every direction at once:

* the ``record_access`` coverage check
  (:func:`~repro.analysis.races.verify_access_coverage`): every tracked
  shared field really is instrumented, so the detector sees it;
* :func:`run_race_probe` replays short replicated runs with the
  happens-before detector installed (and a phase-pinned duplicate-ack link
  race armed, so the dangerous reorder window of the pop-oldest release
  bug is actually exercised) and reports every unordered conflicting
  access;
* :func:`run_fuzz` replays each workload under N seeded deterministic
  tie-break permutations (plus a reversal) of same-timestamp orderings
  and diffs trace + metrics digests against the insertion-order baseline:
  identical digests == end-to-end schedule independence;
* the regression probes re-enable the historical
  ``unsafe_ack_before_commit`` / ``unsafe_release_oldest_barrier`` races,
  and the detector must flag each — the proof that a clean probe is clean
  because the protocol is, not because the detector is blind.

Permutations are context-grouped: events scheduled by one callback keep
their relative order (preserving legitimate FIFO guarantees like
per-connection packet order), while the interleaving between different
contexts at the same instant is permuted.  All randomness is splitmix-style
integer hashing seeded from the permutation index — no ``random`` module,
no entropy, fully replayable.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.races import (
    RaceFinding,
    install_detector,
    verify_access_coverage,
)
from repro.sim.units import ms

__all__ = [
    "PermutedTieBreak",
    "ReversedTieBreak",
    "FUZZ_WORKLOADS",
    "ProbeResult",
    "format_report",
    "run_fuzz",
    "run_race_probe",
    "run_races",
    "trace_digest",
]

#: Workloads used by the fuzzer (and, as ``ndreplay.DEFAULT_WORKLOADS``,
#: by the paper gate's ``determinism`` cells).  Both are chosen for
#: digest stability: ``net`` issues fixed-size echo requests
#: (no RNG draw in the request path, so no shared-stream draw-order
#: sensitivity) and ``disk-rw`` is a single process with its own stream.
FUZZ_WORKLOADS = ("net", "disk-rw")


# --------------------------------------------------------------------------- #
# Tie-break policies                                                          #
# --------------------------------------------------------------------------- #


def _splitmix32(x: int) -> int:
    """Deterministic 32-bit integer mix (splitmix64's finalizer, narrowed)."""
    x = (x + 0x9E3779B9) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x85EBCA6B) & 0xFFFFFFFF
    x ^= x >> 13
    x = (x * 0xC2B2AE35) & 0xFFFFFFFF
    x ^= x >> 16
    return x


class PermutedTieBreak:
    """Pseudo-random (but fully deterministic) same-timestamp ordering."""

    def __init__(self, seed: int) -> None:
        self._mix = _splitmix32(seed & 0xFFFFFFFF)

    def key(self, ctx_serial: int) -> int:
        return _splitmix32(ctx_serial ^ self._mix)


class ReversedTieBreak:
    """Later scheduling contexts fire first within a timestamp."""

    def key(self, ctx_serial: int) -> int:
        return -ctx_serial


def _schedules(permutations: int, seed: int) -> list[tuple[str, Any]]:
    """The alternate schedules one fuzz cell runs against its baseline."""
    out: list[tuple[str, Any]] = [("reversed", ReversedTieBreak())]
    for i in range(1, permutations):
        out.append((f"perm{i}", PermutedTieBreak(i * 0x9E3779B9 + seed)))
    return out


# --------------------------------------------------------------------------- #
# Digests                                                                     #
# --------------------------------------------------------------------------- #


def trace_digest(tracer) -> str:
    """Order-insensitive digest of the full trace stream.

    Events are digested as a sorted multiset of rendered lines: a schedule
    permutation may legitimately swap the emission order of two events at
    the same microsecond, but any change in *what* happened must change
    the digest.  Raw microsecond timestamps are deliberately excluded:
    the container freezer quiesces in-flight slices by *polling*, so when
    the quiesce check lands on the same microsecond as a slice completion
    the tie-break decides whether freeze pays one extra poll interval —
    a modeled physical jitter (the real CRIU freezer has it too) that
    shifts every downstream timestamp without changing protocol behavior.
    Behavioral divergence still shows: event kinds, epoch numbers, dirty
    page counts, byte/packet counts and multiplicities are all digested,
    and the companion metrics digest covers end-to-end totals.  A
    truncated tracer poisons the digest so it can never silently compare
    equal to a complete one.
    """
    lines = sorted(
        f"{e.category}|{e.name}|{sorted((k, repr(v)) for k, v in e.detail.items())}"
        for e in tracer.events
    )
    crc = 0
    for line in lines:
        crc = zlib.crc32(line.encode("utf-8"), crc)
    if tracer.dropped:
        crc = zlib.crc32(f"DROPPED:{tracer.dropped}".encode("utf-8"), crc)
    return format(crc, "08x")


def _metrics_digest(metrics: dict) -> str:
    return format(zlib.crc32(json.dumps(metrics, sort_keys=True).encode("utf-8")), "08x")


# --------------------------------------------------------------------------- #
# Instrumented run harness                                                    #
# --------------------------------------------------------------------------- #


@dataclass
class ProbeResult:
    """One instrumented run: digests, protocol counters, race findings."""

    workload: str
    seed: int
    schedule: str
    trace_digest: str
    metrics: dict
    metrics_digest: str
    findings: list[RaceFinding] = field(default_factory=list)
    audit_violations: list[str] = field(default_factory=list)
    accesses_recorded: int = 0
    trace_dropped: int = 0

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "schedule": self.schedule,
            "trace_digest": self.trace_digest,
            "metrics": self.metrics,
            "metrics_digest": self.metrics_digest,
            "findings": [f.as_dict() for f in self.findings],
            "audit_violations": self.audit_violations,
            "accesses_recorded": self.accesses_recorded,
            "trace_dropped": self.trace_dropped,
        }


def _dup_ack_plan(world, deployment):
    """Arm the pop-oldest reorder window: duplicate the ack of epoch
    TARGET-1 and hold the copy until barrier TARGET has just been inserted
    (the exact window the `_dup_ack_then_crash` campaign scenario uses).
    Harmless under the fixed cumulative release; under
    ``unsafe_release_oldest_barrier`` it pops epoch TARGET's barrier with
    only TARGET-1 acknowledged — which the detector flags as an ordered
    read of a never-written commit record."""
    from repro.faultinject.plan import FaultPlan, LinkFault
    from repro.faultinject.scenarios import TARGET_EPOCH

    plan = FaultPlan(links=[
        LinkFault(kind="ack", epoch=TARGET_EPOCH - 1, mode="duplicate",
                  release_at_point="primary.post_barrier"),
    ])
    return plan.arm(world.engine)


def run_instrumented(
    workload_name: str,
    seed: int,
    run_ms: int = 900,
    config=None,
    tiebreak: Any = None,
    schedule_name: str = "fifo",
    detect: bool = True,
    arm_plan: Callable | None = None,
    max_findings: int = 200,
    ndlog: Any = None,
) -> ProbeResult:
    """One replicated run with tracer (+ detector, + optional fault plan).

    *ndlog* optionally attaches an :class:`~repro.sim.ndlog.NDLog` (record
    or replay mode) over the world's RNG streams and tie-break policy —
    the record→replay oracle in :mod:`repro.analysis.ndreplay` rides this.
    """
    from repro.experiments.common import open_cell
    from repro.sim.trace import install_tracer
    from repro.workloads.base import ServerWorkload

    detector = None

    def instrument(world) -> None:
        nonlocal detector
        if tiebreak is not None:
            world.engine.set_tiebreak(tiebreak)
        if ndlog is not None:
            from repro.sim.ndlog import attach_ndlog

            attach_ndlog(world, ndlog)
        install_tracer(world.engine)
        if detect:
            detector = install_detector(world.engine, max_findings)

    cell = open_cell(workload_name, "nilicon", seed, config=config,
                     instrument=instrument)
    world, deployment, stats = cell.world, cell.deployment, cell.stats
    tracer = world.engine.tracer
    plan = arm_plan(world, deployment) if arm_plan is not None else None
    cell.start()
    if isinstance(cell.workload, ServerWorkload):
        cell.clients_at(ms(300), run_until_us=ms(run_ms))
    world.run(until=ms(run_ms))
    if ndlog is not None:
        from repro.sim.ndlog import detach_ndlog

        # Detach the moment the measured window closes: GC-finalized
        # generators schedule events at arbitrary later points, and those
        # draws must not land in (or be demanded from) the log.
        detach_ndlog(world)
    deployment.stop()
    if plan is not None:
        plan.disarm()

    m = deployment.metrics
    metrics = {
        "n_epochs": m.n_epochs,
        "packets_released": m.packets_released,
        "committed_epoch": deployment.backup_agent.committed_epoch,
        "received_epoch": deployment.backup_agent.received_epoch,
        "completed": stats.completed,
        "errors": stats.errors,
        "validation_failures": len(stats.validation_failures),
        "trace_events": len(tracer.events),
        "trace_dropped": tracer.dropped,
    }
    return ProbeResult(
        workload=workload_name,
        seed=seed,
        schedule=schedule_name,
        trace_digest=trace_digest(tracer),
        metrics=metrics,
        metrics_digest=_metrics_digest(metrics),
        findings=list(detector.findings) if detector is not None else [],
        audit_violations=deployment.audit_output_commit(),
        accesses_recorded=detector.accesses_recorded if detector is not None else 0,
        trace_dropped=tracer.dropped,
    )


# --------------------------------------------------------------------------- #
# Probe mode (happens-before detection)                                       #
# --------------------------------------------------------------------------- #


def run_race_probe(
    workloads: tuple[str, ...] = ("net",),
    seeds: tuple[int, ...] = (1, 2, 3),
    run_ms: int = 900,
    config=None,
) -> dict:
    """Detector sweep: each workload x seed with the reorder window armed,
    under *config* (default: ``NiliconConfig.nilicon()``).

    Returns a report dict; ``ok`` is True when no unordered conflicting
    access (and no output-commit audit violation) was observed.
    """
    from repro.replication.config import NiliconConfig

    if config is None:
        config = NiliconConfig.nilicon()
    runs = []
    for workload in workloads:
        for seed in seeds:
            runs.append(
                run_instrumented(
                    workload, seed, run_ms=run_ms, config=config,
                    arm_plan=_dup_ack_plan,
                )
            )
    findings = [f for r in runs for f in r.findings]
    audit = [v for r in runs for v in r.audit_violations]
    return {
        "ok": not findings and not audit,
        "runs": [r.as_dict() for r in runs],
        "findings": [f.as_dict() for f in findings],
        "audit_violations": audit,
        "accesses_recorded": sum(r.accesses_recorded for r in runs),
    }


# --------------------------------------------------------------------------- #
# Fuzz mode (schedule-independence via digest diffing)                        #
# --------------------------------------------------------------------------- #


def run_fuzz(
    workloads: tuple[str, ...] = FUZZ_WORKLOADS,
    seeds: tuple[int, ...] = (1, 2, 3),
    permutations: int = 8,
    run_ms: int = 700,
    detect: bool = True,
) -> dict:
    """Replay each workload x seed under *permutations* alternate
    same-timestamp orderings and diff digests against the FIFO baseline."""
    cells = []
    divergences = []
    findings: list[RaceFinding] = []
    for workload in workloads:
        for seed in seeds:
            base = run_instrumented(workload, seed, run_ms=run_ms, detect=detect)
            findings.extend(base.findings)
            for name, tiebreak in _schedules(permutations, seed):
                alt = run_instrumented(
                    workload, seed, run_ms=run_ms, tiebreak=tiebreak,
                    schedule_name=name, detect=detect,
                )
                findings.extend(alt.findings)
                same = (
                    alt.trace_digest == base.trace_digest
                    and alt.metrics_digest == base.metrics_digest
                )
                cells.append({
                    "workload": workload,
                    "seed": seed,
                    "schedule": name,
                    "trace_digest": alt.trace_digest,
                    "metrics_digest": alt.metrics_digest,
                    "identical": same,
                })
                if not same:
                    divergences.append({
                        "workload": workload,
                        "seed": seed,
                        "schedule": name,
                        "base_trace": base.trace_digest,
                        "alt_trace": alt.trace_digest,
                        "base_metrics": base.metrics,
                        "alt_metrics": alt.metrics,
                    })
    return {
        "ok": not divergences and not findings,
        "workloads": list(workloads),
        "seeds": list(seeds),
        "permutations": permutations,
        "cells": cells,
        "divergences": divergences,
        "findings": [f.as_dict() for f in findings],
    }


# --------------------------------------------------------------------------- #
# The race pass                                                               #
# --------------------------------------------------------------------------- #

#: NiliconConfig overrides that each re-enable one historical
#: output-commit race; every pass runs the probe under each and the
#: detector must flag it.
_REGRESSIONS = {
    "ack-before-commit": {"unsafe_ack_before_commit": True},
    "release-oldest": {"unsafe_release_oldest_barrier": True},
}


def run_races(smoke: bool = False) -> dict:
    """The one race pass: the access-coverage check, the clean probe, the
    schedule fuzz and both regression probes.

    The probes run net at seed 1 in both columns: net draws no registry
    stream, so another seed replays the same simulation.  ``smoke`` fuzzes
    net x seed 1 over 3 schedules; the full pass fuzzes net and disk-rw x
    seeds 1-3 over 8 schedules (the tie-break schedules are seeded).  ``ok`` holds
    only when the coverage check, the probe and the fuzz are clean and
    every regression probe has at least one finding; ``missed`` names the
    regressions the detector did not flag.
    """
    from repro.replication.config import NiliconConfig

    problems = verify_access_coverage()
    probe = run_race_probe(seeds=(1,))
    fuzz = run_fuzz(
        workloads=("net",) if smoke else FUZZ_WORKLOADS,
        seeds=(1,) if smoke else (1, 2, 3),
        permutations=3 if smoke else 8,
    )
    regressions = {
        name: run_race_probe(
            seeds=(1,), config=NiliconConfig.nilicon().with_(**override))
        for name, override in _REGRESSIONS.items()
    }
    missed = [name for name, report in regressions.items()
              if not report["findings"]]
    return {
        "smoke": smoke,
        "problems": problems,
        "probe": probe,
        "fuzz": fuzz,
        "regressions": regressions,
        "missed": missed,
        "ok": not problems and probe["ok"] and fuzz["ok"] and not missed,
    }


# --------------------------------------------------------------------------- #
# Rendering                                                                   #
# --------------------------------------------------------------------------- #


def _race_lines(report: dict) -> list[str]:
    return ([f"  RACE {f['check']}: {f['message']}" for f in report["findings"]]
            + [f"  AUDIT {v}" for v in report.get("audit_violations", ())])


def format_report(report: dict) -> str:
    """Human-readable rendering of one :func:`run_races` pass."""
    lines = [
        "record_access coverage: every tracked field is instrumented."
        if not report["problems"] else "record_access coverage check FAILED:"
    ]
    lines += [f"  - {problem}" for problem in report["problems"]]
    probe = report["probe"]
    lines.append(f"race probe: {len(probe['runs'])} run(s), "
                 f"{probe['accesses_recorded']} accesses tracked")
    lines += _race_lines(probe)
    lines.append(
        "no unordered conflicting accesses." if probe["ok"]
        else f"{len(probe['findings'])} race finding(s), "
             f"{len(probe['audit_violations'])} audit violation(s)."
    )
    fuzz = report["fuzz"]
    lines.append(
        f"schedule fuzz: {len(fuzz['cells'])} permuted run(s) over "
        f"{'/'.join(fuzz['workloads'])} x seeds {fuzz['seeds']} "
        f"({fuzz['permutations']} schedules each)"
    )
    for d in fuzz["divergences"]:
        lines.append(
            f"  DIVERGED {d['workload']} seed={d['seed']} "
            f"schedule={d['schedule']}: trace {d['base_trace']} -> "
            f"{d['alt_trace']}; metrics {d['base_metrics']} -> "
            f"{d['alt_metrics']}"
        )
    lines += _race_lines(fuzz)
    lines.append(
        "all digests identical; no races under any schedule."
        if fuzz["ok"] else
        f"{len(fuzz['divergences'])} divergence(s), "
        f"{len(fuzz['findings'])} race finding(s)."
    )
    for name, regression in report["regressions"].items():
        verdict = "MISSED" if name in report["missed"] else "detected"
        lines.append(
            f"regression {name}: {len(regression['findings'])} race "
            f"finding(s), {len(regression['audit_violations'])} audit "
            f"violation(s) — {verdict}"
        )
        lines += _race_lines(regression)
    lines.append("races: OK" if report["ok"] else "races: FAIL")
    return "\n".join(lines)
