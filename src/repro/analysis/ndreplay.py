"""Record→replay differential oracle (``repro ndflow replay``).

Layer 3 of the nondeterminism-provenance analyzer: the runtime
cross-reference that proves the static inventory's central claim — *the
NDLog captures every nondeterministic input*.  For each catalog workload:

1. **Record** — run the deployment with an :class:`~repro.sim.ndlog.NDLog`
   in record mode: every RngRegistry stream draw and every engine
   tie-break decision lands in the log with a per-stream sequence number.
2. **Replay** — serialize the log (``to_dict``/``from_dict``, proving the
   JSON round-trip suffices), rebuild the world from the same seed, and
   re-run with the log in replay mode: draws are served *from the log
   alone*; the seeded generators are never consulted.
3. **Compare** — the replayed run must produce the identical trace digest
   and metrics digest, consume the log exactly (no leftovers), and re-fold
   the same log digest.  Any unlogged nondeterminism source surfaces as a
   :class:`~repro.sim.ndlog.ReplayDivergence` (naming the stream and
   sequence number) or as a digest mismatch.
4. **Cross-reference** — every stream the record halves drew from must
   map back to a static inventory site (:func:`crossref_streams`); an
   unmatched stream is a logged source the NDF rules never saw.

The ``unsafe-unlogged-draw`` knob re-enables a consumer that bypasses the
log (``replication/primary.py``); with it armed the oracle must *fail* on
every cell — the dynamic witness confirming the static NDF001/NDF003
findings, exactly how ``repro races --knob`` and ``repro perf crossref``
pair their static and dynamic layers.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.fuzz import PermutedTieBreak, run_instrumented
from repro.analysis.inventory import load_sources
from repro.analysis.ndflow import NDFLOW_SCOPE, build_nd_inventory
from repro.sim.ndlog import NDLog, ReplayDivergence, TIEBREAK_STREAM

__all__ = [
    "KNOBS",
    "crossref_streams",
    "golden_ndlog_digests",
    "run_oracle",
    "run_roundtrip",
    "write_ndlog_golden",
]

#: ``--knob`` name -> NiliconConfig override re-enabling an unlogged draw.
KNOBS = {
    "unsafe-unlogged-draw": {"unsafe_unlogged_draw": True},
}

#: Catalog cells the smoke/golden paths use (full catalog in tests).
DEFAULT_WORKLOADS = ("net", "disk-rw")
DEFAULT_SEEDS = (1, 2)
DEFAULT_RUN_MS = 600


def run_roundtrip(
    workload: str,
    seed: int,
    run_ms: int = DEFAULT_RUN_MS,
    config=None,
    permuted: bool = True,
) -> dict:
    """One record→replay cell; returns a verdict dict.

    ``identical`` is True only when the replayed run (fed from the
    serialized log alone) reproduced both digests, consumed every recorded
    draw, and re-folded the recorded log digest.
    """
    record_log = NDLog(mode="record")
    tiebreak = PermutedTieBreak(seed) if permuted else None
    recorded = run_instrumented(
        workload, seed, run_ms=run_ms, config=config, tiebreak=tiebreak,
        schedule_name="ndlog-record", detect=False, ndlog=record_log,
    )

    # Round-trip through the serialized form: the replay must need nothing
    # beyond seed + what a backup could have received on disk.
    replay_log = NDLog.from_dict(record_log.to_dict(), mode="replay")

    divergence: str | None = None
    replayed = None
    try:
        replayed = run_instrumented(
            workload, seed, run_ms=run_ms, config=config, tiebreak=None,
            schedule_name="ndlog-replay", detect=False, ndlog=replay_log,
        )
    except ReplayDivergence as exc:
        divergence = str(exc)

    unconsumed = replay_log.unconsumed()
    result = {
        "workload": workload,
        "seed": seed,
        "run_ms": run_ms,
        "n_draws": record_log.n_draws,
        "streams": record_log.draw_counts(),
        "ndlog_digest": record_log.digest(),
        "record_trace_digest": recorded.trace_digest,
        "record_metrics_digest": recorded.metrics_digest,
        "divergence": divergence,
        "unconsumed": unconsumed,
    }
    if replayed is not None:
        result["replay_trace_digest"] = replayed.trace_digest
        result["replay_metrics_digest"] = replayed.metrics_digest
        result["replay_ndlog_digest"] = replay_log.digest()
    result["identical"] = (
        divergence is None
        and replayed is not None
        and replayed.trace_digest == recorded.trace_digest
        and replayed.metrics_digest == recorded.metrics_digest
        and not unconsumed
        and replay_log.digest() == record_log.digest()
    )
    return result


def run_oracle(
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    run_ms: int = DEFAULT_RUN_MS,
    knob: str | None = None,
) -> dict:
    """The full oracle sweep, with the stream cross-reference over every
    cell's recorded draw counts.

    Without a knob, ``ok`` means every cell replayed identical.  With a
    knob armed, the polarity flips: ``ok`` means the sweep *diverged
    somewhere* — the oracle proved it can catch the regression (any-cell,
    like ``repro races --knob``: the unlogged draw is OS entropy, so a
    single lucky cell may still happen to replay clean).  Under either
    polarity an unmatched stream fails ``ok``.
    """
    from repro.replication.config import NiliconConfig

    config = NiliconConfig.nilicon()
    if knob is not None:
        if knob not in KNOBS:
            raise KeyError(f"unknown knob {knob!r}; have {sorted(KNOBS)}")
        config = config.with_(**KNOBS[knob])

    cells = [
        run_roundtrip(workload, seed, run_ms=run_ms, config=config)
        for workload in workloads
        for seed in seeds
    ]
    if knob is None:
        ok = all(cell["identical"] for cell in cells)
    else:
        ok = any(not cell["identical"] for cell in cells)
    draws: dict[str, int] = {}
    for cell in cells:
        for name, n in cell["streams"].items():
            draws[name] = draws.get(name, 0) + n
    crossref = crossref_streams(draws)
    return {
        "mode": "replay-oracle",
        "workloads": list(workloads),
        "seeds": list(seeds),
        "run_ms": run_ms,
        "knob": knob,
        "cells": cells,
        "crossref": crossref,
        "ok": ok and not crossref["unmatched"],
    }


# --------------------------------------------------------------------------- #
# Static cross-reference                                                      #
# --------------------------------------------------------------------------- #


def _site_patterns(src) -> list[str]:
    """Regexes the stream names minted by one static call site can match.
    A literal yields an exact pattern; an f-string yields its literal
    parts joined by wildcards; any other dynamic shape yields a full
    wildcard (it can mint any name)."""
    call = src.node
    arg = call.args[0] if getattr(call, "args", None) else None
    if arg is None:
        return []
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return [re.escape(arg.value) + r"\Z"]
    patterns: list[str] = []
    wildcard = False
    nodes = [arg] if isinstance(arg, ast.JoinedStr) else list(ast.walk(arg))
    for node in nodes:
        if isinstance(node, ast.JoinedStr):
            parts: list[str] = []
            for piece in node.values:
                if isinstance(piece, ast.Constant):
                    parts.append(re.escape(str(piece.value)))
                else:
                    parts.append(".+")
            patterns.append("".join(parts) + r"\Z")
        elif isinstance(node, (ast.Name, ast.Attribute)):
            wildcard = True
    if wildcard or not patterns:
        patterns.append(r".+\Z")
    return patterns


def crossref_streams(draw_counts: dict[str, int], inventory=None) -> dict:
    """Map every stream observed at runtime back to a static inventory
    site; an unmatched stream means the static inventory is incomplete —
    a logged source the NDF rules never saw."""
    if inventory is None:
        inventory = build_nd_inventory(load_sources(NDFLOW_SCOPE))
    sites: list[tuple[str, list[str]]] = []
    for src in inventory.sites:
        if src.kind not in ("stream", "spawn"):
            continue
        label = f"{src.path}:{src.line}"
        sites.append((label, _site_patterns(src)))

    matched: dict[str, str] = {}
    unmatched: list[str] = []
    for name in sorted(draw_counts):
        if name == TIEBREAK_STREAM:
            matched[name] = "sim/engine.py (tie-break policy, built-in)"
            continue
        # Prefer the most specific site: exact literal, then f-string,
        # then wildcard.
        best: tuple[int, str] | None = None
        for label, patterns in sites:
            for pattern in patterns:
                if re.match(pattern, name):
                    specificity = len(pattern.replace(r"\Z", "")
                                      .replace(".+", ""))
                    if best is None or specificity > best[0]:
                        best = (specificity, label)
        if best is None:
            unmatched.append(name)
        else:
            matched[name] = best[1]
    return {"matched": matched, "unmatched": unmatched}


def golden_ndlog_digests(report: dict) -> dict[str, str]:
    """Per-cell NDLog digests of a :func:`run_oracle` *report*, keyed
    ``workload:seed``: the cells of the golden file (``tests/golden/``)."""
    return {f"{cell['workload']}:{cell['seed']}": cell["ndlog_digest"]
            for cell in report["cells"]}


def write_ndlog_golden(path: str) -> None:
    """Regenerate the golden NDLog digest file (``make golden-regen``)."""
    import json

    doc: dict = {"run_ms": DEFAULT_RUN_MS}
    doc.update(golden_ndlog_digests(run_oracle()))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_report(report: dict) -> str:
    """Human-readable rendering for the CLI."""
    lines: list[str] = []
    for cell in report["cells"]:
        verdict = "replay-identical" if cell["identical"] else "DIVERGED"
        lines.append(
            f"{cell['workload']} seed={cell['seed']}: {verdict} "
            f"({cell['n_draws']} draws, ndlog {cell['ndlog_digest']})"
        )
        if cell["divergence"]:
            lines.append(f"    {cell['divergence']}")
        elif not cell["identical"]:
            if cell.get("replay_trace_digest") != cell["record_trace_digest"]:
                lines.append(
                    f"    trace digest {cell['record_trace_digest']} -> "
                    f"{cell.get('replay_trace_digest')}"
                )
            if cell["unconsumed"]:
                lines.append(f"    unconsumed draws: {cell['unconsumed']}")
    crossref = report["crossref"]
    lines.append(f"stream -> static site ({len(crossref['matched'])} matched):")
    for name in sorted(crossref["matched"]):
        lines.append(f"    {name:<40} {crossref['matched'][name]}")
    for name in crossref["unmatched"]:
        lines.append(f"    {name:<40} UNMATCHED — static inventory gap")
    status = "OK" if report["ok"] else "FAIL"
    if report.get("knob"):
        status += f" (knob {report['knob']}: divergence expected)"
    lines.append(status)
    return "\n".join(lines)
