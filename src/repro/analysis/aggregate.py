"""Consolidated analyzer gate (``repro analyze`` / ``make analyze``).

Runs every step of :data:`STEPS` through the real ``repro`` CLI entry
points, so each step keeps its exact gate semantics (the baseline, the
selfchecks, the regression probes inside each dynamic pass).  ``STEPS``
is the only list of these steps and of the baseline file: no make target,
CI step or help text repeats it, and each inventory selfcheck runs inside
the steps that gate on it.  The aggregate exit code is the max over
steps; the findings artifact is the document the one lint step already
printed, each finding tagged with the analyzer of its rule family and its
baseline disposition.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

from repro.analysis.inventory import ANALYZERS, analyzer_of

__all__ = ["STEPS", "collect_findings", "format_summary", "run_all"]


def _wall() -> float:
    return time.monotonic()  # nlint: disable=DET001 -- step-timing display only; never feeds simulated state

#: (analyzer, smoke argv, full argv) — argv is what ``repro.cli.main``
#: receives; ``repro analyze`` (CI) runs the smoke column, ``repro
#: analyze --full`` the full one.  The one ``lint`` step runs every static
#: rule family against one baseline and prints one ``--json`` document;
#: every dynamic step is one pass shaped by ``--smoke`` alone.
STEPS: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = (
    ("lint", ("lint", "--baseline", "lint-baseline.json", "--json"),
     ("lint", "--baseline", "lint-baseline.json", "--json")),
    ("races", ("races", "--smoke"), ("races",)),
    ("ckptcov", ("ckptcov", "diff", "--smoke"), ("ckptcov", "diff")),
    ("ndflow", ("ndflow", "replay", "--smoke"), ("ndflow", "replay")),
    ("ftcov",
     ("ftcov", "record", "--smoke", "--json-out", "coverage-matrix.json"),
     ("ftcov", "record", "--json-out", "coverage-matrix.json")),
    ("paper", ("paper", "bench", "--smoke", "--check", "BENCH_paper.json"),
     ("paper", "bench", "--check", "BENCH_paper.json")),
)


def collect_findings(output: str) -> list[dict]:
    """One record per finding of the lint step's ``--json`` *output*,
    tagged with the analyzer of its rule family.  A lint that printed no
    document has already failed on its own exit status."""
    try:
        document = json.loads(output)
    except ValueError:
        return []
    merged = [{"analyzer": analyzer_of(finding["rule"]), **finding}
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
    findings = collect_findings(
        next(step["output"] for step in steps if step["analyzer"] == "lint"))
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
    # The lint step runs nlint and every inventory analyzer's rules.
    analyzers = len({analyzer for analyzer, _, _ in STEPS} - {"lint"}
                    | {"nlint", *ANALYZERS})
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
