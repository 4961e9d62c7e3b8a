"""The consolidated ``repro analyze`` gate wiring.

These tests pin the step list and the merged-findings tagging without
paying for a full ``run_all`` (the individual steps are each covered by
their own suites and by CI's ``make analyze``).
"""

from repro.analysis.aggregate import STATIC_PASSES, STEPS, collect_findings
from repro.cli import build_parser


def test_steps_cover_all_six_analyzers_plus_hycor_and_paper_gates():
    analyzers = {analyzer for analyzer, _, _ in STEPS}
    assert analyzers == {"nlint", "races", "ckptcov", "perf", "ndflow",
                         "ftcov", "hycor", "paper"}


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
            assert "--check-inventory" not in argv


def test_hycor_steps_gate_the_comparison_against_the_bench_file():
    assert [(smoke, full) for analyzer, smoke, full in STEPS
            if analyzer == "hycor"] == [
        (("hycor", "bench", "--smoke", "--check", "BENCH_hycor.json"),
         ("hycor", "bench", "--check", "BENCH_hycor.json")),
    ]


def test_paper_steps_gate_every_artifact_against_the_bench_file():
    assert [(smoke, full) for analyzer, smoke, full in STEPS
            if analyzer == "paper"] == [
        (("paper", "bench", "--smoke", "--check", "BENCH_paper.json"),
         ("paper", "bench", "--check", "BENCH_paper.json")),
    ]


def test_ftcov_steps_lint_record_and_probe_the_knob():
    ftcov_smoke = [smoke for analyzer, smoke, _ in STEPS
                   if analyzer == "ftcov"]
    # The lint step runs the selfcheck; CI runs no separate ftcov step:
    # the record step writes the coverage matrix the workflow uploads.
    assert ftcov_smoke == [
        ("ftcov", "lint", "--baseline", "ftcov-baseline.json"),
        ("ftcov", "record", "--json-out", "coverage-matrix.json"),
        ("ftcov", "record", "--knob", "drop-scenario"),
    ]


def test_full_ckptcov_step_runs_the_oracle_on_every_catalog_workload():
    from repro.workloads.catalog import WORKLOADS

    (full,) = [full for analyzer, _, full in STEPS
               if analyzer == "ckptcov"]
    workloads = [full[i + 1] for i, arg in enumerate(full)
                 if arg == "--workload"]
    assert sorted(workloads) == sorted(WORKLOADS)


def test_every_static_pass_has_a_baseline_entry():
    baselines = {analyzer: baseline
                 for analyzer, _, baseline in STATIC_PASSES}
    assert set(baselines) == {"nlint", "ckptcov", "perf", "ndflow", "ftcov"}
    assert baselines["nlint"] is None
    for analyzer in ("ckptcov", "perf", "ndflow", "ftcov"):
        assert baselines[analyzer] == f"{analyzer}-baseline.json"


def test_merged_findings_tag_the_ftcov_knob_as_baselined():
    merged = collect_findings()
    ftcov = [f for f in merged if f["analyzer"] == "ftcov"]
    assert [f["rule"] for f in ftcov] == ["FTC002"]
    assert ftcov[0]["baselined"] is True
    assert ftcov[0]["path"] == "src/repro/faultinject/scenarios.py"
