"""The consolidated ``repro analyze`` gate wiring.

These tests pin the step list and the merged-findings tagging without
paying for a full ``run_all`` (the individual steps are each covered by
their own suites and by CI's ``make analyze``).
"""

from repro.analysis.aggregate import STATIC_PASSES, STEPS, collect_findings


def test_steps_cover_all_six_analyzers_plus_hycor_gate():
    analyzers = {analyzer for analyzer, _, _ in STEPS}
    assert analyzers == {"nlint", "races", "ckptcov", "perf", "ndflow",
                         "ftcov", "hycor"}


def test_hycor_step_mirrors_the_make_target():
    hycor_smoke = [smoke for analyzer, smoke, _ in STEPS
                   if analyzer == "hycor"]
    assert ("hycor", "bench", "--smoke", "--check", "BENCH_hycor.json") in \
        hycor_smoke
    full = [full for analyzer, _, full in STEPS if analyzer == "hycor"]
    assert ("hycor", "bench", "--check", "BENCH_hycor.json") in full


def test_ftcov_steps_mirror_the_make_target():
    ftcov_smoke = [smoke for analyzer, smoke, _ in STEPS
                   if analyzer == "ftcov"]
    assert ("ftcov", "selfcheck") in ftcov_smoke
    assert ("ftcov", "lint", "--baseline", "ftcov-baseline.json") in \
        ftcov_smoke
    # CI runs no separate ftcov step: this one writes the coverage matrix
    # the workflow uploads as an artifact.
    assert ("ftcov", "record", "--json-out", "coverage-matrix.json") in \
        ftcov_smoke
    assert ("ftcov", "record", "--knob", "drop-scenario") in ftcov_smoke


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
