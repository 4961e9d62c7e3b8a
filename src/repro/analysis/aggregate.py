"""Consolidated analyzer gate (``repro analyze`` / ``make analyze``).

Runs every step of :data:`STEPS` through the real ``repro`` CLI entry
points, so each step keeps its exact gate semantics (baselines, knob
polarity, selfchecks).  ``STEPS`` is the only list of these steps and of
the baseline files they read: no make target, CI step or help text
repeats it, and each inventory selfcheck runs inside the lint step that
gates on it.  The aggregate exit code is the max over steps; the merged
findings artifact is read from the JSON documents the lint steps already
printed, each finding tagged with its analyzer and baseline disposition.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

__all__ = ["STEPS", "collect_findings", "format_summary", "is_lint",
           "run_all"]


def _wall() -> float:
    return time.monotonic()  # nlint: disable=DET001 -- step-timing display only; never feeds simulated state

#: (analyzer, smoke argv, full argv) — argv is what ``repro.cli.main``
#: receives; ``repro analyze`` (CI) runs the smoke column, ``repro
#: analyze --full`` the full one.  Every lint step prints one ``--json``
#: document; the full ``ckptcov diff`` step runs the oracle on every
#: catalog workload.
STEPS: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = (
    ("nlint", ("lint", "src", "--json"), ("lint", "src", "--json")),
    ("races", ("races", "--check-access"), ("races", "--check-access")),
    ("races", ("races", "--smoke"), ("races",)),
    ("races", ("races", "--fuzz", "--smoke"), ("races", "--fuzz")),
    ("races", ("races", "--smoke", "--knob", "ack-before-commit"),
     ("races", "--knob", "ack-before-commit")),
    ("races", ("races", "--smoke", "--knob", "release-oldest"),
     ("races", "--knob", "release-oldest")),
    ("ckptcov",
     ("ckptcov", "lint", "--baseline", "ckptcov-baseline.json", "--json"),
     ("ckptcov", "lint", "--baseline", "ckptcov-baseline.json", "--json")),
    ("ckptcov",
     ("ckptcov", "diff", "--workload", "ssdb", "--workload", "net-echo"),
     ("ckptcov", "diff",
      "--workload", "swaptions", "--workload", "streamcluster",
      "--workload", "redis", "--workload", "ssdb", "--workload", "node",
      "--workload", "lighttpd", "--workload", "djcms",
      "--workload", "disk-rw", "--workload", "net-echo",
      "--workload", "net")),
    ("perf", ("perf", "lint", "--baseline", "perf-baseline.json", "--json"),
     ("perf", "lint", "--baseline", "perf-baseline.json", "--json")),
    ("perf", ("perf", "profile", "--smoke"), ("perf", "profile")),
    ("ndflow",
     ("ndflow", "lint", "--baseline", "ndflow-baseline.json", "--json"),
     ("ndflow", "lint", "--baseline", "ndflow-baseline.json", "--json")),
    ("ndflow", ("ndflow", "replay", "--smoke"), ("ndflow", "replay")),
    ("ndflow",
     ("ndflow", "replay", "--smoke", "--knob", "unsafe-unlogged-draw"),
     ("ndflow", "replay", "--knob", "unsafe-unlogged-draw")),
    ("ftcov",
     ("ftcov", "lint", "--baseline", "ftcov-baseline.json", "--json"),
     ("ftcov", "lint", "--baseline", "ftcov-baseline.json", "--json")),
    ("ftcov",
     ("ftcov", "record", "--smoke", "--json-out", "coverage-matrix.json"),
     ("ftcov", "record", "--json-out", "coverage-matrix.json")),
    ("paper", ("paper", "bench", "--smoke", "--check", "BENCH_paper.json"),
     ("paper", "bench", "--check", "BENCH_paper.json")),
)


def is_lint(argv) -> bool:
    """Whether *argv* is a static lint step (``lint ...`` or ``<analyzer>
    lint ...``): the steps whose ``--json`` document lists findings."""
    return "lint" in argv[:2]


def collect_findings(steps: list[dict]) -> list[dict]:
    """One merged record per static finding the lint *steps* printed,
    tagged with its analyzer and whether the step's baseline accounts for
    it.  A lint step that printed no document has already failed on its
    own exit status; the dynamic passes gate the same way."""
    merged: list[dict] = []
    for step in steps:
        if not is_lint(step["argv"]):
            continue
        try:
            document = json.loads(step["output"])
        except ValueError:
            continue
        merged += [{"analyzer": step["analyzer"], **finding}
                   for finding in document["findings"]]
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
    findings = collect_findings(steps)
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
    analyzers = len({analyzer for analyzer, _, _ in STEPS})
    lines = [f"analyze ({report['mode']}): "
             f"{len(report['steps'])} step(s) over {analyzers} analyzers"]
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
