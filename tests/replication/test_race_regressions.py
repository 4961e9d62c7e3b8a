"""Regression proof for the two historical output-commit races.

Every race pass re-enables each of the ``unsafe_*`` config knobs that
preserve a pre-fix behavior and requires the happens-before detector to
flag it; these tests pin the exact broken site on the smoke pass's own
report.  The clean probe of the same pass must stay silent — so the pass
pins both directions of the detector's discrimination — and a regression
whose override is neutralised must fail the pass by name.
"""

import pytest

from repro.analysis import fuzz
from repro.analysis.fuzz import run_races


@pytest.fixture(scope="module")
def report():
    return run_races(smoke=True)


def _messages(probe):
    return " || ".join(f["message"] for f in probe["findings"])


def test_smoke_pass_runs_the_cell_grid_and_holds(report):
    assert report["ok"] is True
    assert report["problems"] == [] and report["missed"] == []
    assert [(r["workload"], r["seed"]) for r in report["probe"]["runs"]] == [
        ("net", 1)]
    assert report["fuzz"]["workloads"] == ["net"]
    assert report["fuzz"]["seeds"] == [1]
    assert report["fuzz"]["permutations"] == 3
    assert len(report["fuzz"]["cells"]) == 3
    assert sorted(report["regressions"]) == ["ack-before-commit",
                                             "release-oldest"]
    for probe in report["regressions"].values():
        assert [(r["workload"], r["seed"]) for r in probe["runs"]] == [
            ("net", 1)]


def test_clean_configuration_reports_no_races(report):
    probe = report["probe"]
    assert probe["ok"] is True
    assert probe["findings"] == []
    assert probe["audit_violations"] == []
    # The probe actually exercised the instrumented surfaces.
    assert probe["accesses_recorded"] > 100


def test_ack_before_commit_race_is_detected(report):
    """Pre-fix bug #1: the backup acked an epoch before committing it, so
    a duplicated ack could release output whose epoch was never durable."""
    probe = report["regressions"]["ack-before-commit"]
    assert probe["ok"] is False
    assert probe["findings"], "detector missed the ack-before-commit race"
    msgs = _messages(probe)
    # The finding names the release site and the commit it never saw.
    assert "netbuffer.release_barrier" in msgs
    assert "backup.commit_publish" in msgs
    assert any(f["field"] == "epoch_commit" for f in probe["findings"])


def test_release_oldest_barrier_race_is_detected(report):
    """Pre-fix bug #2: the netbuffer released its *oldest* barrier on any
    ack instead of the acked epoch's barrier, running output ahead of the
    commit frontier."""
    probe = report["regressions"]["release-oldest"]
    assert probe["ok"] is False
    checks = {f["check"] for f in probe["findings"]}
    # Output released for an epoch whose commit never happened (or hadn't
    # happened yet when the packet left).
    assert checks & {
        "missing-write-for-ordered-read",
        "unordered-ordered-read",
        "write-after-unordered-read",
    }
    assert "netbuffer.release_barrier" in _messages(probe)
    # The independent runtime auditor corroborates from the outside.
    assert probe["audit_violations"]
    assert any("output released" in v for v in probe["audit_violations"])


@pytest.mark.parametrize("name", sorted(fuzz._REGRESSIONS))
def test_neutralised_regression_fails_the_pass(name, monkeypatch):
    # With one override emptied, that regression probe runs the clean
    # configuration: the detector rightly finds nothing, so the pass must
    # fail and name it while the other regression is still detected.
    monkeypatch.setitem(fuzz._REGRESSIONS, name, {})
    neutralised = run_races(smoke=True)
    assert neutralised["ok"] is False
    assert neutralised["missed"] == [name]
    assert neutralised["probe"]["ok"] and neutralised["fuzz"]["ok"]
    assert f"regression {name}: 0 race finding(s)" in fuzz.format_report(
        neutralised)
