"""Tests for finding baselines (``repro lint --baseline lint-baseline.json``)."""

import json

import pytest

from repro.analysis.baseline import (
    BaselineError,
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.analysis.inventory import analyzer_of
from repro.analysis.linter import Finding, all_rules
from repro.cli import main


def mk(rule_id="CKPT101", path="src/a.py", line=1, message="field x uncovered",
       severity="warning"):
    return Finding(rule_id=rule_id, path=path, line=line, col=0,
                   message=message, severity=severity)


# --------------------------------------------------------------------------- #
# Fingerprints and file round-trip                                            #
# --------------------------------------------------------------------------- #


def test_fingerprint_is_line_free():
    assert fingerprint(mk(line=1)) == fingerprint(mk(line=99))
    assert fingerprint(mk(message="a")) != fingerprint(mk(message="b"))
    assert fingerprint(mk(path="src/a.py")) != fingerprint(mk(path="src/b.py"))


def test_write_then_load_round_trip(tmp_path):
    file = tmp_path / "base.json"
    entries = write_baseline(file, [mk(), mk(), mk(message="other")])
    assert entries == load_baseline(file)
    assert entries[fingerprint(mk())] == 2
    assert entries[fingerprint(mk(message="other"))] == 1


def test_missing_file_is_empty_baseline(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == {}


@pytest.mark.parametrize("payload", [
    "not json {",
    json.dumps([1, 2]),
    json.dumps({"version": 99, "entries": {}}),
    json.dumps({"version": 1, "entries": {"fp": 0}}),
    json.dumps({"version": 1, "entries": "fp"}),
])
def test_malformed_baseline_raises(tmp_path, payload):
    file = tmp_path / "bad.json"
    file.write_text(payload)
    with pytest.raises(BaselineError):
        load_baseline(file)


# --------------------------------------------------------------------------- #
# Partitioning                                                                #
# --------------------------------------------------------------------------- #


def test_apply_partitions_new_baselined_stale():
    known, gone = mk(message="known"), mk(message="fixed")
    baseline = {fingerprint(known): 1, fingerprint(gone): 1}
    report = apply_baseline([known, mk(message="fresh")], baseline)
    assert [f.message for f in report.baselined] == ["known"]
    assert [f.message for f in report.new] == ["fresh"]
    assert report.stale == [(fingerprint(gone), 1)]
    assert not report.ok


def test_duplicate_allowance_is_a_count():
    baseline = {fingerprint(mk()): 2}
    report = apply_baseline([mk(line=1), mk(line=5), mk(line=9)], baseline)
    assert len(report.baselined) == 2
    assert len(report.new) == 1
    assert report.stale == []


def test_empty_everything_is_ok():
    report = apply_baseline([], {})
    assert report.ok and report.stale == []


# --------------------------------------------------------------------------- #
# CLI integration (`repro lint --baseline`)                                   #
# --------------------------------------------------------------------------- #


def test_ckptcov_update_then_gate(tmp_path, capsys):
    base = tmp_path / "lint.json"
    other = "FTC002::src/repro/x.py::an entry of a rule the run skips"
    base.write_text(json.dumps({"version": 1, "entries": {other: 1}}))
    # Bootstrap: freeze the tree's current CKPT101 findings; the entries
    # of rules the run did not select stay as they were.
    argv = ["lint", "--select", "CKPT101", "--baseline", str(base)]
    assert main([*argv, "--update-baseline"]) == 0
    entries = load_baseline(base)
    assert len(entries) == 2 and other in entries
    assert any(fp.startswith("CKPT101::") for fp in entries)
    capsys.readouterr()
    # Gated: the known finding is baselined, exit 0, and the skipped
    # rule's entry is not reported stale.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "baselined" in out and "stale" not in out


def test_ckptcov_empty_baseline_gates_on_known_gap(tmp_path, capsys):
    base = tmp_path / "empty.json"
    base.write_text(json.dumps({"version": 1, "entries": {}}))
    assert main(["lint", "--select", "CKPT101", "--baseline", str(base)]) == 1
    out = capsys.readouterr().out
    assert "CKPT101" in out and "new" in out


def test_lint_json_lists_every_finding_with_its_disposition(tmp_path,
                                                           capsys):
    # One document, the baselined finding included: `repro analyze`
    # reads its findings from it instead of re-running the pass.
    argv = ["lint", "--select", "CKPT101", "--json", "--baseline"]
    assert main([*argv, "lint-baseline.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(f["rule"], f["baselined"]) for f in doc["findings"]] == [
        ("CKPT101", True)]
    assert doc["count"] == 1 and doc["stale"] == []
    base = tmp_path / "empty.json"
    base.write_text(json.dumps({"version": 1, "entries": {}}))
    assert main([*argv, str(base)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [(f["rule"], f["baselined"]) for f in doc["findings"]] == [
        ("CKPT101", False)]


def test_lint_accepts_baseline_flag(tmp_path, capsys):
    # The tree has no RACE001 finding, so the gate passes and a
    # stale-entry warning must surface without failing the run.
    base = tmp_path / "lint.json"
    fp = "RACE001::src/repro/kernel/task.py::stale demo entry"
    base.write_text(json.dumps({"version": 1, "entries": {fp: 1}}))
    assert main(["lint", "--select", "RACE001", "--baseline", str(base)]) == 0
    out = capsys.readouterr().out
    assert "stale" in out


def test_checked_in_ckptcov_baseline_matches_tree(capsys):
    """ckptcov's entries of the repo-root baseline match its findings: the
    known gap is baselined and none of its entries is stale."""
    ckptcov = [rule.rule_id for rule in all_rules()
               if analyzer_of(rule.rule_id) == "ckptcov"]
    argv = ["lint", "--json", "--baseline", "lint-baseline.json"]
    assert main([*argv, *(f"--select={rid}" for rid in ckptcov)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(f["rule"], f["baselined"]) for f in doc["findings"]] == [
        ("CKPT101", True)]
    assert doc["stale"] == []


def test_checked_in_lint_baseline_matches_tree(capsys):
    """The repo-root baseline must stay in sync with the tree (CI runs this
    same gate as the lint step of `make analyze`): every finding of every
    rule family is baselined, and no entry is stale."""
    assert main(["lint", "--json", "--baseline", "lint-baseline.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"] and all(f["baselined"] for f in doc["findings"])
    assert doc["stale"] == []
