"""The one BENCH file format: named metrics, each with a direction.

Every checked-in ``BENCH_*.json`` (engine, fleet, traffic, hycor, paper)
is one report of this shape::

    {"schema": "repro.bench/v2", "bench": "traffic", "seed": 1,
     "smoke": false, "ok": true, "problems": [],
     "metrics": {"steady.p99_us": {"value": 43882, "unit": "us",
                                   "better": "lower"},
                 "steady.p50_us": {"value": 35839, "unit": "us"}, ...},
     "info": {"slo_digest": "fd301e4b1308cdb8"}}

A metric with ``better`` is gated: ``"higher"`` or ``"lower"`` within a
band, ``"exact"`` (a deterministic work counter) on any difference; one
without it is recorded only.  ``info`` holds the non-numeric context a
report carries (digests, fleet shape, workload kind, the engine's
before/after optimization records).  A producer folds every check that
needs no baseline into ``ok`` and lists each failure in ``problems``;
:func:`check` is the one regression gate against a checked-in file, and a
smoke report gates against the full file's shared metrics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

__all__ = ["SCHEMA", "TOLERANCE", "check", "format", "load", "write"]

SCHEMA = "repro.bench/v2"

#: How far a gated metric may move in its worse direction, relative to
#: the checked-in value.  A metric's ``min_band`` floors the band in
#: absolute units (hycor's percentage-point metrics sit near zero).
TOLERANCE = 0.20

_DIRECTIONS = ("higher", "lower", "exact")


def write(report: Mapping[str, Any], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load(path: str | Path) -> dict[str, Any]:
    """Read a BENCH file; ``ValueError`` if it is not a v2 report."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} bench report")
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(f"{path}: no metrics table")
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or "value" not in metric:
            raise ValueError(f"{path}: metric {name!r} has no value")
        if metric.get("better", "higher") not in _DIRECTIONS:
            raise ValueError(
                f"{path}: metric {name!r} has unknown direction "
                f"{metric['better']!r}"
            )
    return report


def check(
    current: Mapping[str, Any], baseline: Mapping[str, Any]
) -> list[str]:
    """The regression gate: *current* must run the baseline's seed and hold
    its own ``ok``, and every metric the *baseline* gates must stay inside
    its band (or equal it, when exact) if *current* also has it.  Returns
    the problems (empty = gate passes)."""
    problems: list[str] = []
    if current["seed"] != baseline["seed"]:
        problems.append(
            f"seed {current['seed']} differs from the checked-in seed "
            f"{baseline['seed']}; its metrics are not comparable"
        )
    if not current["ok"]:
        problems.append(
            f"the current {current['bench']} bench failed its own checks: "
            + "; ".join(current["problems"])
        )
    base_metrics = baseline["metrics"]
    for name, metric in sorted(current["metrics"].items()):
        base = base_metrics.get(name)
        if base is None or "better" not in base:
            continue
        value = metric["value"]
        if base["better"] == "exact":
            if value != base["value"]:
                problems.append(
                    f"{name}: {value} {base['unit']} differs from the "
                    f"checked-in {base['value']} (exact)"
                )
            continue
        band = max(TOLERANCE * abs(base["value"]), base.get("min_band", 0.0))
        if base["better"] == "higher" and value < base["value"] - band:
            problems.append(
                f"{name}: {value} {base['unit']} is below the checked-in "
                f"{base['value']} (floor {base['value'] - band:.2f})"
            )
        elif base["better"] == "lower" and value > base["value"] + band:
            problems.append(
                f"{name}: {value} {base['unit']} is above the checked-in "
                f"{base['value']} (ceiling {base['value'] + band:.2f})"
            )
    return problems


def format(report: Mapping[str, Any]) -> str:
    """One table of metric name, value, unit and direction, then info."""
    metrics = report["metrics"]
    width = max((len(name) for name in metrics), default=6)
    lines = [
        f"{report['bench']} bench (seed {report['seed']}"
        f"{', smoke' if report['smoke'] else ''}) — "
        f"{'ok' if report['ok'] else 'FAILED'}"
    ]
    lines += [f"  problem: {problem}" for problem in report["problems"]]
    lines.append(f"  {'metric':<{width}}  {'value':>12}  {'unit':<9}  better")
    for name, metric in sorted(metrics.items()):
        lines.append(
            f"  {name:<{width}}  {metric['value']:>12}  {metric['unit']:<9}  "
            f"{metric.get('better', '')}".rstrip()
        )
    for key, value in sorted(report["info"].items()):
        lines.append(f"  {key}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines)
