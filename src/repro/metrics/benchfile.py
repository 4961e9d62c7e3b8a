"""The one BENCH file format: named metrics, each compared exactly.

``BENCH_paper.json`` is the one checked-in report, of this shape::

    {"schema": "repro.bench/v3", "bench": "paper", "seed": 1,
     "smoke": false, "ok": true, "problems": [],
     "metrics": {"traffic.steady.p99_us": {"value": 43882, "unit": "us"},
                 "determinism.net/seed1.trace_digest": {"value": "1adbc5ea",
                                                        "unit": "digest"},
                 ...},
     "info": {"clauses_run": 217}}

A metric's value is a number (a simulated result or a deterministic work
counter) or a digest string, and :func:`check` fails on any difference
from the checked-in value.  ``info`` holds the context a report carries
that is not compared (clause counts, validation failures).  A producer
folds every check that needs no baseline into ``ok`` and lists each
failure in ``problems``; :func:`check` is the one regression gate against
a checked-in file, and a smoke report gates against the full file's
shared metrics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

__all__ = ["SCHEMA", "check", "format", "load", "write"]

SCHEMA = "repro.bench/v3"

_METRIC_KEYS = {"value", "unit"}


def write(report: Mapping[str, Any], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load(path: str | Path) -> dict[str, Any]:
    """Read a BENCH file; ``ValueError`` if it is not a v3 report."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} bench report")
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(f"{path}: no metrics table")
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or "value" not in metric:
            raise ValueError(f"{path}: metric {name!r} has no value")
        if set(metric) != _METRIC_KEYS:
            raise ValueError(
                f"{path}: metric {name!r} has keys {sorted(metric)}, "
                f"not {sorted(_METRIC_KEYS)}"
            )
    return report


def check(
    current: Mapping[str, Any], baseline: Mapping[str, Any]
) -> list[str]:
    """The regression gate: *current* must run the baseline's seed and hold
    its own ``ok``, and every metric it shares with the *baseline* must
    equal it.  A smoke report may lack metrics (it runs a subset); a full
    one must report them all.  Returns the problems (empty = gate
    passes)."""
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
    if not current["smoke"]:
        problems += [
            f"{name}: in the checked-in file but missing from this full run"
            for name in sorted(base_metrics)
            if name not in current["metrics"]
        ]
    for name, metric in sorted(current["metrics"].items()):
        base = base_metrics.get(name)
        if base is not None and metric["value"] != base["value"]:
            problems.append(
                f"{name}: {metric['value']} {base['unit']} differs from the "
                f"checked-in {base['value']}"
            )
    return problems


def format(report: Mapping[str, Any]) -> str:
    """One table of metric name, value and unit, then info."""
    metrics = report["metrics"]
    width = max((len(name) for name in metrics), default=6)
    lines = [
        f"{report['bench']} bench (seed {report['seed']}"
        f"{', smoke' if report['smoke'] else ''}) — "
        f"{'ok' if report['ok'] else 'FAILED'}"
    ]
    lines += [f"  problem: {problem}" for problem in report["problems"]]
    lines.append(f"  {'metric':<{width}}  {'value':>12}  unit")
    for name, metric in sorted(metrics.items()):
        lines.append(
            f"  {name:<{width}}  {metric['value']:>12}  {metric['unit']}"
        )
    for key, value in sorted(report["info"].items()):
        lines.append(f"  {key}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines)
