"""The consolidated ``repro analyze`` gate wiring.

These tests pin the step list and the merged-findings tagging without
paying for a full ``run_all`` (the individual steps are each covered by
their own suites and by CI's ``make analyze``).
"""

from pathlib import Path

from repro.analysis.aggregate import (
    STEPS, collect_findings, format_summary, is_lint,
)
from repro.analysis.linter import Finding
from repro.analysis.report import render_json
from repro.cli import build_parser
from repro.metrics import benchfile

REPO = Path(__file__).resolve().parents[2]


def test_steps_cover_all_six_analyzers_plus_the_paper_gate():
    analyzers = {analyzer for analyzer, _, _ in STEPS}
    assert analyzers == {"nlint", "races", "ckptcov", "perf", "ndflow",
                         "ftcov", "paper"}
    assert len(STEPS) == 16


def test_summary_counts_the_analyzers_of_the_step_list():
    report = {"mode": "smoke", "findings": [], "new_findings": 0, "ok": True,
              "steps": [{"analyzer": analyzer, "argv": list(smoke), "exit": 0,
                         "wall_s": 0.0, "output": ""}
                        for analyzer, smoke, _ in STEPS]}
    assert format_summary(report).splitlines()[0] == (
        "analyze (smoke): 16 step(s) over 7 analyzers")


def test_every_step_argv_is_a_real_command_run_once():
    """``STEPS`` is the only list of analyzer steps, so each argv must
    parse as a ``repro`` command, none may repeat, and no selfcheck runs
    on its own: every lint step already gates on it."""
    parser = build_parser()
    for column in (1, 2):
        argvs = [step[column] for step in STEPS]
        assert len(set(argvs)) == len(argvs)
        for argv in argvs:
            parser.parse_args(list(argv))
            assert "selfcheck" not in argv


def test_hycor_steps_gate_the_comparison_against_the_bench_file():
    """The HyCoR comparison has no step of its own: its three artifacts
    are cells of BENCH_paper.json, which the paper step gates."""
    assert [step for step in STEPS if step[0] == "hycor"] == []
    paper_argvs = [argv for analyzer, smoke, full in STEPS
                   if analyzer == "paper" for argv in (smoke, full)]
    assert paper_argvs
    assert all(argv[-2:] == ("--check", "BENCH_paper.json")
               for argv in paper_argvs)
    pinned = benchfile.load(REPO / "BENCH_paper.json")
    artifacts = {name.split(".", 1)[0] for name in pinned["metrics"]}
    assert {"hycor", "hycor_recovery", "hycor_traffic"} <= artifacts


def test_paper_steps_gate_every_artifact_against_the_bench_file():
    assert [(smoke, full) for analyzer, smoke, full in STEPS
            if analyzer == "paper"] == [
        (("paper", "bench", "--smoke", "--check", "BENCH_paper.json"),
         ("paper", "bench", "--check", "BENCH_paper.json")),
    ]
    # The paper step is the only gate on a BENCH file.
    assert [argv for step in STEPS for argv in step[1:] if "--check" in argv] == [
        ("paper", "bench", "--smoke", "--check", "BENCH_paper.json"),
        ("paper", "bench", "--check", "BENCH_paper.json"),
    ]


def test_ftcov_steps_lint_record_and_probe_the_knob():
    ftcov_smoke = [smoke for analyzer, smoke, _ in STEPS
                   if analyzer == "ftcov"]
    # The lint step runs the selfcheck; CI runs no separate ftcov step:
    # the one record pass runs every catalog, derives the drop-scenario
    # probe and writes the coverage matrix the workflow uploads.
    assert ftcov_smoke == [
        ("ftcov", "lint", "--baseline", "ftcov-baseline.json", "--json"),
        ("ftcov", "record", "--smoke", "--json-out", "coverage-matrix.json"),
    ]


def test_full_ckptcov_step_runs_the_oracle_on_every_catalog_workload():
    from repro.workloads.catalog import WORKLOADS

    (full,) = [full for analyzer, _, full in STEPS
               if full[:2] == ("ckptcov", "diff")]
    workloads = [full[i + 1] for i, arg in enumerate(full)
                 if arg == "--workload"]
    assert sorted(workloads) == sorted(WORKLOADS)


def test_every_static_pass_has_a_baseline_entry():
    """The lint steps are the only place a baseline file is named, and
    each prints the JSON document the merged findings are read from."""
    for column in (1, 2):
        lints = {step[0]: step[column] for step in STEPS
                 if is_lint(step[column])}
        assert set(lints) == {"nlint", "ckptcov", "perf", "ndflow", "ftcov"}
        for analyzer, argv in lints.items():
            assert "--json" in argv
            if analyzer == "nlint":
                assert "--baseline" not in argv
            else:
                baseline = argv[argv.index("--baseline") + 1]
                assert baseline == f"{analyzer}-baseline.json"


def _finding(rule, path, line, severity="warning"):
    return Finding(rule_id=rule, path=path, line=line, col=1,
                   message="m", severity=severity)


def test_merged_findings_tag_the_ftcov_knob_as_baselined():
    knob = _finding("FTC002", "src/repro/faultinject/scenarios.py", 9)
    new = _finding("FTC004", "src/repro/fleet/a.py", 3)
    gap = _finding("CKPT100", "src/repro/kernel/b.py", 1, "error")
    steps = [
        {"analyzer": "nlint", "argv": ["lint", "src", "--json"],
         "output": render_json([])},
        {"analyzer": "races", "argv": ["races", "--smoke"],
         "output": "not a findings document\n"},
        # A lint step that failed before printing its document.
        {"analyzer": "perf", "argv": ["perf", "lint", "--json"],
         "output": "perf self-check FAILED\n"},
        {"analyzer": "ckptcov", "argv": ["ckptcov", "lint", "--json"],
         "output": render_json([gap])},
        {"analyzer": "ftcov", "argv": ["ftcov", "lint", "--json"],
         "output": render_json([knob, new], baselined=[knob])},
    ]
    merged = collect_findings(steps)
    assert [(f["analyzer"], f["rule"], f["baselined"]) for f in merged] == [
        ("ftcov", "FTC002", True),
        ("ftcov", "FTC004", False),
        ("ckptcov", "CKPT100", False),
    ]
    assert merged[0] == {"analyzer": "ftcov", **knob.as_dict(),
                         "baselined": True}
