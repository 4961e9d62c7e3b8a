"""``bench compare``: verdicts for a change against its parent.

Each side is a list of ``bench run`` reports.  Samples are the untraced
repeats of every report, in order; pair *k* is the *k*-th parent repeat
against the *k*-th change repeat, so run the two sides alternately.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from bench.harness import quartiles
from bench.spec import SIM_OUTPUT_BOUND, SIM_OUTPUTS, allowed_worsening, load_benchmark

__all__ = ["compare", "verdict"]


def verdict(metric: dict[str, Any], parent: list[float], change: list[float]) -> str:
    """``improved``, ``unchanged``, ``regressed`` or ``unresolved``.

    * regressed: the change's median is worse than the parent's by more
      than the metric's bound;
    * improved: the change wins at least 9/10 of the pairs (ties count for
      neither) and the medians differ by more than the parent's IQR;
    * unresolved: the run-to-run spread is wider than the bound, unless
      every change sample beats every parent sample.
    """
    lower = metric["better"] == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    allowed = allowed_worsening(metric, p_med)
    worse_by = c_med - p_med if lower else p_med - c_med
    if worse_by > allowed:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > p_q3 - p_q1:
        return "improved"
    spread = max(p_q3 - p_q1, c_q3 - c_q1)
    if spread > allowed and not all(beats(c, p) for c in change for p in parent):
        return "unresolved"
    return "unchanged"


def _load(paths: list[str]) -> list[dict[str, Any]]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def _samples(reports: list[dict[str, Any]], workload: str, metric: str) -> list[float]:
    return [
        r[metric]
        for report in reports
        for r in report["workloads"][workload]["repeats"]
        if not r["traced"]
    ]


def _failed_share(reports: list[dict[str, Any]]) -> tuple[int, int]:
    entries = [e for report in reports for e in report["workloads"].values()]
    return sum(e["failed"] for e in entries), sum(e["attempted"] for e in entries)


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(parent_paths: list[str], change_paths: list[str]) -> tuple[list[str], int]:
    """Report lines and the exit code (1 on a regression or on more failed
    ops than the parent)."""
    parents, changes = _load(parent_paths), _load(change_paths)
    benchmark = load_benchmark()
    lines = [f"{'workload':<9} {'metric':<16} {'parent median [q1, q3]':<30} "
             f"{'change median [q1, q3]':<30} verdict"]
    regressed = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            parent = _samples(parents, workload, metric["name"])
            change = _samples(changes, workload, metric["name"])
            result = verdict(metric, parent, change)
            regressed |= result == "regressed"
            lines.append(
                f"{workload:<9} {metric['name']:<16} {_cell(parent):<30} "
                f"{_cell(change):<30} {result} ({metric['unit']}, n {len(parent)}/{len(change)})"
            )
        pairs = list(zip(parents, changes))
        if any(p["seed"] != c["seed"] for p, c in pairs):
            lines.append(f"{workload:<9} sim outputs not compared: paired runs differ in seed")
            continue
        p_entries = [p["workloads"][workload] for p, _ in pairs]
        c_entries = [c["workloads"][workload] for _, c in pairs]
        if [e["sim_digest"] for e in p_entries] == [e["sim_digest"] for e in c_entries]:
            lines.append(f"{workload:<9} sim outputs identical (sim_digest match)")
            continue
        for name, output in SIM_OUTPUTS.items():
            if not output.better or any(name not in e["outputs"] for e in p_entries + c_entries):
                continue
            metric = {"name": name, "better": output.better, "bound": SIM_OUTPUT_BOUND}
            parent = [e["outputs"][name] for e in p_entries]
            change = [e["outputs"][name] for e in c_entries]
            result = verdict(metric, parent, change)
            regressed |= result == "regressed"
            lines.append(
                f"{workload:<9} {name:<16} {_cell(parent):<30} {_cell(change):<30} "
                f"{result} ({output.unit} simulated; sim_digest changed)"
            )
    p_failed, p_attempted = _failed_share(parents)
    c_failed, c_attempted = _failed_share(changes)
    p_share, c_share = p_failed / max(1, p_attempted), c_failed / max(1, c_attempted)
    lines.append(
        f"failed ops: parent {p_failed}/{p_attempted} ({p_share:.3g}), "
        f"change {c_failed}/{c_attempted} ({c_share:.3g})"
    )
    return lines, int(regressed or c_share > p_share)

