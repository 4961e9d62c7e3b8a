"""Tests for the nlint framework: registry, suppressions, reporters."""

import json

import pytest

from repro.analysis.inventory import load_sources
from repro.analysis.linter import REGISTRY, Finding, all_rules, lint_source
from repro.analysis.report import render_json, render_text


def test_registry_has_at_least_six_rules():
    rules = all_rules()
    ids = {rule.rule_id for rule in rules}
    assert len(ids) >= 6
    assert {"DET001", "DET002", "DET003", "SIM001", "EXC001", "RACE001"} <= ids
    assert "CKPT001" not in ids  # ckptcov's CKPT101/CKPT103 check it


def test_all_rules_select_subset_and_unknown():
    only = all_rules(select=["DET001"])
    assert [r.rule_id for r in only] == ["DET001"]
    with pytest.raises(KeyError):
        all_rules(select=["NOPE999"])


def test_every_rule_documents_itself():
    for rule in all_rules():
        assert rule.summary, f"{rule.rule_id} has no summary"
        assert rule.interests, f"{rule.rule_id} declares no node interests"
        assert rule.rule_id in REGISTRY


def test_suppression_specific_rule():
    src = "import time\ndef f():\n    return time.time()  # nlint: disable=DET001\n"
    assert lint_source(src, "src/repro/sim/x.py") == []


def test_suppression_bare_disables_all():
    src = "import time\ndef f():\n    return time.time()  # nlint: disable\n"
    assert lint_source(src, "src/repro/sim/x.py") == []


def test_suppression_wrong_rule_id_does_not_apply():
    src = "import time\ndef f():\n    return time.time()  # nlint: disable=DET002\n"
    findings = lint_source(src, "src/repro/sim/x.py")
    assert [f.rule_id for f in findings] == ["DET001"]


def test_syntax_error_reported_as_e999():
    findings = lint_source("def broken(:\n", "src/repro/x.py")
    assert len(findings) == 1
    assert findings[0].rule_id == "E999"


def test_findings_sorted_deterministically():
    src = (
        "import time, os\n"
        "def f():\n"
        "    a = os.urandom(4)\n"
        "    b = time.time()\n"
    )
    findings = lint_source(src, "src/repro/kernel/x.py")
    assert [f.line for f in findings] == sorted(f.line for f in findings)


def test_render_text_includes_position_and_summary():
    findings = [
        Finding(rule_id="DET001", path="a.py", line=3, col=4, message="msg")
    ]
    text = render_text(findings)
    assert "a.py:3:4: DET001 msg" in text
    assert "1 finding(s)" in text
    assert render_text([]) == "nlint: no findings"


def test_render_json_shape():
    findings = [
        Finding(rule_id="DET002", path="b.py", line=1, col=0, message="m")
    ]
    payload = json.loads(render_json(findings))
    assert payload["count"] == 1
    assert payload["findings"][0] == {
        "rule": "DET002",
        "path": "b.py",
        "line": 1,
        "col": 0,
        "message": "m",
        "severity": "error",
        "baselined": False,
    }
    assert payload["stale"] == []


def test_source_tree_is_clean():
    """The self-clean guarantee: the package has zero per-file findings,
    so the CI gate (`python -m repro lint`) stays meaningful."""
    rules = all_rules()
    assert [finding for path, text in load_sources(("",)).items()
            for finding in lint_source(text, path, rules)] == []
