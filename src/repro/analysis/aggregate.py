"""Consolidated analyzer gate (``repro analyze`` / ``make analyze``).

Runs all six analyzer families — nlint (DET/CKPT/RACE/ORD), races
(happens-before + schedule fuzz), ckptcov (CKPT1xx + differential
oracle), perf (PERF + profiler + bench gate), ndflow (NDF +
record→replay oracle), and ftcov (FTC + catalog coverage crossref) —
plus the hycor bench gate (replication-mode tradeoff cells against
BENCH_hycor.json) and the paper gate (every table/figure's cells and
shape clauses against BENCH_paper.json) — through their real CLI entry
points, so each step keeps its exact gate semantics (baselines, knob
polarity, selfchecks).
``STEPS`` is the only list of these steps: no make target repeats it,
and each inventory selfcheck runs once, inside the lint step that gates
on it.  The aggregate exit code is the max over steps, and the merged
findings artifact re-runs the five static passes once more to tag every
finding with its analyzer and baseline disposition.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import time

__all__ = ["STATIC_PASSES", "STEPS", "collect_findings", "format_summary",
           "run_all"]


def _wall() -> float:
    return time.monotonic()  # nlint: disable=DET001 -- step-timing display only; never feeds simulated state

#: (analyzer, smoke argv, full argv) — argv is what ``repro.cli.main``
#: receives; ``repro analyze`` (CI) runs the smoke column, ``repro
#: analyze --full`` the full one.  The full ckptcov step runs the oracle
#: on every catalog workload.
STEPS: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = (
    ("nlint", ("lint", "src"), ("lint", "src")),
    ("races", ("races", "--check-access"), ("races", "--check-access")),
    ("races", ("races", "--smoke"), ("races",)),
    ("races", ("races", "--fuzz", "--smoke"), ("races", "--fuzz")),
    ("races", ("races", "--smoke", "--knob", "ack-before-commit"),
     ("races", "--knob", "ack-before-commit")),
    ("races", ("races", "--smoke", "--knob", "release-oldest"),
     ("races", "--knob", "release-oldest")),
    ("ckptcov",
     ("ckptcov", "--baseline", "ckptcov-baseline.json", "--diff",
      "--workload", "ssdb", "--workload", "net-echo"),
     ("ckptcov", "--baseline", "ckptcov-baseline.json", "--diff",
      "--workload", "swaptions", "--workload", "streamcluster",
      "--workload", "redis", "--workload", "ssdb", "--workload", "node",
      "--workload", "lighttpd", "--workload", "djcms",
      "--workload", "disk-rw", "--workload", "net-echo",
      "--workload", "net")),
    ("perf", ("perf", "lint", "--baseline", "perf-baseline.json"),
     ("perf", "lint", "--baseline", "perf-baseline.json")),
    ("perf", ("perf", "profile", "--smoke"), ("perf", "profile")),
    ("perf", ("perf", "bench", "--smoke", "--check", "BENCH_engine.json"),
     ("perf", "bench", "--check", "BENCH_engine.json")),
    ("ndflow", ("ndflow", "lint", "--baseline", "ndflow-baseline.json"),
     ("ndflow", "lint", "--baseline", "ndflow-baseline.json")),
    ("ndflow", ("ndflow", "replay", "--smoke"), ("ndflow", "replay")),
    ("ndflow",
     ("ndflow", "replay", "--smoke", "--knob", "unsafe-unlogged-draw"),
     ("ndflow", "replay", "--knob", "unsafe-unlogged-draw")),
    ("ftcov", ("ftcov", "lint", "--baseline", "ftcov-baseline.json"),
     ("ftcov", "lint", "--baseline", "ftcov-baseline.json")),
    ("ftcov", ("ftcov", "record", "--json-out", "coverage-matrix.json"),
     ("ftcov", "record", "--json-out", "coverage-matrix.json")),
    ("ftcov", ("ftcov", "record", "--knob", "drop-scenario"),
     ("ftcov", "record", "--knob", "drop-scenario")),
    ("hycor", ("hycor", "bench", "--smoke", "--check", "BENCH_hycor.json"),
     ("hycor", "bench", "--check", "BENCH_hycor.json")),
    ("paper", ("paper", "bench", "--smoke", "--check", "BENCH_paper.json"),
     ("paper", "bench", "--check", "BENCH_paper.json")),
)


def _lint_src():
    from repro.analysis.linter import all_rules, lint_paths

    return lint_paths(["src"], all_rules())


def _findings_of(module: str, analyze: str):
    """``module.analyze().findings``, imported only when the pass runs."""
    return lambda: getattr(importlib.import_module(module), analyze)().findings


#: The static passes the merged findings cover: (analyzer, finding
#: producer, checked-in baseline file or None).
STATIC_PASSES = (
    ("nlint", _lint_src, None),
    ("ckptcov", _findings_of("repro.analysis.coverage", "analyze_coverage"),
     "ckptcov-baseline.json"),
    ("perf", _findings_of("repro.analysis.perf", "analyze_perf"),
     "perf-baseline.json"),
    ("ndflow", _findings_of("repro.analysis.ndflow", "analyze_ndflow"),
     "ndflow-baseline.json"),
    ("ftcov", _findings_of("repro.analysis.ftcov", "analyze_ftcov"),
     "ftcov-baseline.json"),
)


def collect_findings() -> list[dict]:
    """One merged record per static finding across all five lint passes,
    tagged with its analyzer and whether the checked-in baseline already
    accounts for it (the dynamic passes gate via their step exit codes)."""
    from repro.analysis.baseline import apply_baseline, load_baseline

    merged: list[dict] = []
    for analyzer, produce, baseline_file in STATIC_PASSES:
        findings = produce()
        baselined_ids: set[int] = set()
        if baseline_file is not None:
            try:
                baseline = load_baseline(baseline_file)
            except Exception:
                baseline = {}
            part = apply_baseline(
                [f for f in findings if f.severity != "error"], baseline
            )
            baselined_ids = {id(f) for f in part.baselined}
        for f in findings:
            merged.append({
                "analyzer": analyzer,
                "rule": f.rule_id,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "severity": f.severity,
                "message": f.message,
                "baselined": id(f) in baselined_ids,
            })
    merged.sort(key=lambda r: (r["path"], r["line"], r["rule"]))
    return merged


def run_all(smoke: bool = True) -> dict:
    """Run every step; never stops early (one report shows all failures)."""
    from repro.cli import main as cli_main

    steps: list[dict] = []
    worst = 0
    for analyzer, smoke_argv, full_argv in STEPS:
        argv = list(smoke_argv if smoke else full_argv)
        buf = io.StringIO()
        start = _wall()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
        except Exception as exc:  # a crashed step must not hide the rest
            buf.write(f"CRASH: {exc!r}\n")
            code = 3
        steps.append({
            "analyzer": analyzer,
            "argv": argv,
            "exit": code,
            "wall_s": round(_wall() - start, 2),
            "output": buf.getvalue(),
        })
        worst = max(worst, code)
    findings = collect_findings()
    return {
        "mode": "smoke" if smoke else "full",
        "steps": steps,
        "findings": findings,
        "new_findings": sum(
            1 for f in findings
            if not f["baselined"] and f["severity"] != "error"
        ),
        "ok": worst == 0,
        "exit": worst,
    }


def format_summary(report: dict) -> str:
    lines = [f"analyze ({report['mode']}): "
             f"{len(report['steps'])} step(s) over 6 analyzers"]
    for step in report["steps"]:
        verdict = "ok" if step["exit"] == 0 else f"FAIL (exit {step['exit']})"
        lines.append(f"  {step['analyzer']:<8} {' '.join(step['argv']):<58} "
                     f"{verdict}  [{step['wall_s']}s]")
        if step["exit"] != 0:
            for out_line in step["output"].splitlines():
                lines.append(f"      {out_line}")
    lines.append(
        f"merged findings: {len(report['findings'])} "
        f"({report['new_findings']} unbaselined warning(s))"
    )
    lines.append("analyze: OK" if report["ok"] else "analyze: FAIL")
    return "\n".join(lines)
