"""Tests for the checkpoint state-coverage analyzer (Layers 1+2).

Synthetic :class:`SourceSet`s exercise each CKPT1xx rule in isolation;
the real-tree tests pin the analyzer's verdict on the actual package,
including the acceptance probe: deleting a real dump site (via source
overrides, no disk writes) must surface as CKPT101.
"""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.analysis.coverage import (
    COVERAGE_RULE_IDS,
    SourceSet,
    analyze_coverage,
    analyze_source_set,
    build_inventory,
    load_source_set,
)


def make_srcs(inventory, dump="", restore="", wrappers=""):
    return SourceSet(
        inventory={"src/repro/kernel/fake.py": inventory},
        dump={"src/repro/criu/fake_dump.py": dump},
        restore={"src/repro/criu/fake_restore.py": restore},
        wrappers={"src/repro/container/fake_rt.py": wrappers},
    )


def rule_ids(report):
    return sorted(f.rule_id for f in report.findings)


# --------------------------------------------------------------------------- #
# Layer 1: inventory                                                          #
# --------------------------------------------------------------------------- #


def test_inventory_discovers_init_and_dataclass_fields():
    inv = build_inventory({
        "src/repro/kernel/x.py": (
            "class A:\n"
            "    count: int = 0\n"
            "    def __init__(self):\n"
            "        self.items = []\n"
            "    def push(self, v):\n"
            "        self.items.append(v)\n"
        )
    })
    info = inv.by_name("A")
    assert set(info.fields) == {"count", "items"}
    assert "push" in info.fields["items"].mutators


def test_annotations_classify_fields():
    inv = build_inventory({
        "src/repro/kernel/x.py": (
            "class A:\n"
            "    def __init__(self):\n"
            "        self.real = 0\n"
            "        self.cache = {}  # ckpt: derived -- recomputed\n"
            "        self.timer = None  # ckpt: ephemeral -- re-armed\n"
        )
    })
    fields = inv.by_name("A").fields
    assert fields["real"].classification == "relevant"
    assert fields["cache"].classification == "derived"
    assert fields["timer"].classification == "ephemeral"


def test_class_level_ignore_markers():
    inv = build_inventory({
        "src/repro/kernel/x.py": (
            "class Infra:\n"
            "    __ckpt_ignore__ = True\n"
            "    def __init__(self):\n"
            "        self.stuff = 1\n"
            "class B:\n"
            "    __ckpt_ignore__ = (\"scratch\",)\n"
            "    __ckpt_cadence__ = \"infrequent\"\n"
            "    def __init__(self):\n"
            "        self.scratch = 0\n"
            "        self.kept = 0\n"
        )
    })
    assert inv.by_name("Infra").ignored
    b = inv.by_name("B")
    assert b.cadence == "infrequent"
    assert b.fields["scratch"].classification == "ignored"
    assert b.fields["kept"].classification == "relevant"


def test_enums_and_exceptions_exempt():
    inv = build_inventory({
        "src/repro/kernel/x.py": (
            "from enum import Enum\n"
            "class Phase(Enum):\n"
            "    A = 1\n"
            "class BoomError(Exception):\n"
            "    def __init__(self):\n"
            "        self.detail = 'x'\n"
        )
    })
    assert inv.by_name("Phase").exempt
    assert inv.by_name("BoomError").exempt


# --------------------------------------------------------------------------- #
# Layer 2: the rule catalog on synthetic sources                              #
# --------------------------------------------------------------------------- #

_WIDGET = (
    "class Widget:\n"
    "    def __init__(self):\n"
    "        self.alpha = 0\n"
    "        self.beta = 0\n"
    "    def describe(self):\n"
    "        return {'alpha': self.alpha}\n"
    "    def restore_from(self, d):\n"
    "        self.alpha = d['alpha']\n"
    "    def bump(self):\n"
    "        self.beta += 1\n"
)


def test_ckpt100_class_never_dumped():
    srcs = make_srcs(
        "class Orphan:\n"
        "    def __init__(self):\n"
        "        self.value = 0\n"
        "    def tick(self):\n"
        "        self.value += 1\n",
        dump="def dump(x):\n    return x.unrelated\n",
    )
    report = analyze_source_set(srcs)
    assert rule_ids(report) == ["CKPT100"]
    assert report.findings[0].severity == "error"
    assert "Orphan" in report.findings[0].message


#: Fields a serializer leaves out, each with the class's dump and restore
#: paths; ``default-factory`` and ``init-list`` are the dataclass and
#: ``__init__`` shapes of unserialized mutable state.
_UNDUMPED = {
    "widget": (
        _WIDGET,
        "def dump(w):\n    return w.describe()\n",
        "def restore(w, d):\n    w.restore_from(d)\n",
        ("Widget", "beta"), ("Widget", "alpha"),
    ),
    "default-factory": (
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Widget:\n"
        "    name: str = 'w'\n"
        "    queue: list = field(default_factory=list)\n"
        "    def describe(self):\n"
        "        return {'name': self.name}\n",
        "def dump(w):\n    return w.describe()\n",
        "def restore(w, d):\n    w.name = d['name']\n",
        ("Widget", "queue"), ("Widget", "name"),
    ),
    "init-list": (
        "class Sock:\n"
        "    def __init__(self):\n"
        "        self.seq = 0\n"
        "        self.queue = []\n"
        "    def get_repair_state(self):\n"
        "        return {'seq': self.seq}\n",
        "def dump(s):\n    return s.get_repair_state()\n",
        "def restore(s, d):\n    s.seq = d['seq']\n",
        ("Sock", "queue"), ("Sock", "seq"),
    ),
}


def test_ckpt101_field_mutated_never_dumped():
    for shape, (inventory, dump, restore, gap, covered) in _UNDUMPED.items():
        report = analyze_source_set(make_srcs(inventory, dump, restore))
        assert rule_ids(report) == ["CKPT101"], shape
        assert ".".join(gap) in report.findings[0].message
        assert gap in report.uncovered()
        assert covered not in report.uncovered()


def test_ckpt102_dumped_never_restored():
    srcs = make_srcs(
        _WIDGET,
        dump="def dump(w):\n    return (w.describe(), w.beta)\n",
        restore="def restore(w, d):\n    w.alpha = d['alpha']\n",
    )
    report = analyze_source_set(srcs)
    assert rule_ids(report) == ["CKPT102"]
    assert "Widget.beta" in report.findings[0].message


def test_ckpt103_restored_never_dumped():
    widget = make_srcs(
        _WIDGET,
        dump="def dump(w):\n    return {'alpha': w.alpha}\n",
        restore=(
            "def restore(w, d):\n"
            "    w.alpha = d['alpha']\n"
            "    w.beta = d.get('beta', 0)\n"
        ),
    )
    # A restorer that reads a key its serializer never writes.
    gadget = make_srcs(
        "class Gadget:\n"
        "    def __init__(self):\n"
        "        self.name = 'w'\n"
        "    def describe(self):\n"
        "        return {'name': self.name}\n"
        "    def restore_from(self, desc):\n"
        "        self.name = desc['name']\n"
        "        self.extra = desc['missing']\n",
        dump="def dump(w):\n    return w.describe()\n",
        restore="def restore(w, d):\n    w.restore_from(d)\n",
    )
    for srcs, label in ((widget, "Widget.beta"), (gadget, "Gadget.extra")):
        report = analyze_source_set(srcs)
        assert rule_ids(report) == ["CKPT103"]
        assert label in report.findings[0].message


def test_restore_via_constructor_kwargs_counts():
    srcs = make_srcs(
        "class Entry:\n"
        "    def __init__(self, key=0):\n"
        "        self.key = key\n"
        "    def touch(self):\n"
        "        self.key += 1\n",
        dump="def dump(e):\n    return {'key': e.key}\n",
        restore="def restore(d):\n    return Entry(key=d['key'])\n",
    )
    assert analyze_source_set(srcs).findings == []


def test_restore_via_star_kwargs_counts_all_fields():
    srcs = make_srcs(
        "class Entry:\n"
        "    def __init__(self, key=0, value=0):\n"
        "        self.key = key\n"
        "        self.value = value\n"
        "    def touch(self):\n"
        "        self.key += 1\n"
        "        self.value += 1\n",
        dump="def dump(e):\n    return {'key': e.key, 'value': e.value}\n",
        restore="def restore(d):\n    return Entry(**d)\n",
    )
    assert analyze_source_set(srcs).findings == []


_CADENCE_CLASS = (
    "class Slowpoke:\n"
    "    __ckpt_cadence__ = \"infrequent\"\n"
    "    def __init__(self):\n"
    "        self.hostname = 'a'\n"
    "        self.version = 1\n"
    "    def describe(self):\n"
    "        return {'hostname': self.hostname, 'version': self.version}\n"
    "    def restore_from(self, d):\n"
    "        self.hostname = d['hostname']\n"
    "        self.version = d['version']\n"
)


def test_ckpt104_untracked_mutator_on_infrequent_class():
    srcs = make_srcs(
        _CADENCE_CLASS + (
            "    def sneaky_rename(self, name):\n"
            "        self.hostname = name\n"
        ),
        dump="def dump(s):\n    return s.describe()\n",
        restore="def restore(s, d):\n    s.restore_from(d)\n",
    )
    report = analyze_source_set(srcs)
    assert rule_ids(report) == ["CKPT104"]
    assert "sneaky_rename" in report.findings[0].message


def test_ckpt104_quiet_when_mutator_bumps_version():
    srcs = make_srcs(
        _CADENCE_CLASS + (
            "    def rename(self, name):\n"
            "        self.hostname = name\n"
            "        self.version += 1\n"
        ),
        dump="def dump(s):\n    return s.describe()\n",
        restore="def restore(s, d):\n    s.restore_from(d)\n",
    )
    assert analyze_source_set(srcs).findings == []


def test_ckpt104_quiet_when_wrapper_fires_ftrace_hook():
    srcs = make_srcs(
        _CADENCE_CLASS + (
            "    def rename(self, name):\n"
            "        self.hostname = name\n"
        ),
        dump=(
            "HOOKED_FUNCTIONS = (\"sethostname\",)\n"
            "def dump(s):\n    return s.describe()\n"
        ),
        restore="def restore(s, d):\n    s.restore_from(d)\n",
        wrappers=(
            "class Runtime:\n"
            "    def set_hostname(self, name):\n"
            "        self.ns.rename(name)\n"
            "        self.ftrace.trace(\"sethostname\", self)\n"
        ),
    )
    assert analyze_source_set(srcs).findings == []


def test_ckpt104_soft_dirty_flavor():
    srcs = make_srcs(
        "class Mem:\n"
        "    def __init__(self):\n"
        "        self.pages = {}\n"
        "        self._tracking = set()\n"
        "    def clear_refs(self):\n"
        "        self._tracking = set()\n"
        "    def write(self, i, tok):\n"
        "        self._tracking.add(i)\n"
        "        self.pages[i] = tok\n"
        "    def backdoor_write(self, i, tok):\n"
        "        self.pages[i] = tok\n",
        dump="def dump(m):\n    return (m.pages, m._tracking)\n",
        restore=(
            "def restore(m, d):\n"
            "    m.pages = d[0]\n"
            "    m._tracking = d[1]\n"
        ),
    )
    report = analyze_source_set(srcs)
    assert rule_ids(report) == ["CKPT104"]
    assert "backdoor_write" in report.findings[0].message


def test_suppression_comment_silences_finding():
    srcs = make_srcs(
        "class Widget:\n"
        "    def __init__(self):\n"
        "        self.beta = 0  # nlint: disable=CKPT101 -- demo waiver\n"
        "    def bump(self):\n"
        "        self.beta += 1\n"
        "    def describe(self):\n"
        "        return {}\n"
        "    def restore_from(self, d):\n"
        "        self.other = d\n",
        dump="def dump(w):\n    return w.describe()\n",
        restore="def restore(w, d):\n    w.restore_from(d)\n",
    )
    report = analyze_source_set(srcs)
    assert "CKPT101" not in rule_ids(report)


def test_select_and_ignore_filters():
    srcs = make_srcs(
        _WIDGET,
        dump="def dump(w):\n    return {'alpha': w.alpha, 'beta': w.beta}\n",
        restore="def restore(w, d):\n    w.alpha = d['alpha']\n",
    )
    assert rule_ids(analyze_source_set(srcs, select=["CKPT102"])) == ["CKPT102"]
    assert rule_ids(analyze_source_set(srcs, ignore=["CKPT102"])) == []
    with pytest.raises(KeyError):
        analyze_source_set(srcs, select=["CKPT999"])


def test_rules_registered_with_linter_registry():
    from repro.analysis.linter import all_rules

    registered = {r.rule_id for r in all_rules()}
    assert set(COVERAGE_RULE_IDS) <= registered
    # Whole-program rules must not fire during per-file linting.
    from repro.analysis.linter import lint_source

    findings = lint_source("class A:\n    def f(self):\n        self.x = 1\n")
    assert not any(f.rule_id.startswith("CKPT1") for f in findings)


# --------------------------------------------------------------------------- #
# The real tree                                                               #
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def real():
    """One static pass over the real tree, shared by its tests."""
    return analyze_coverage()


def test_real_tree_only_known_gap(real):
    assert real.uncovered() == {("AddressSpace", "pending_fault_ns")}
    assert [f.rule_id for f in real.findings] == ["CKPT101"]
    assert real.findings[0].path == "src/repro/kernel/mm.py"


def test_real_tree_selfcheck_clean(real):
    assert real.problems == []
    dispositions = real.dispositions
    # Spot-check dispositions: infra ignored, kernel state inventoried.
    assert dispositions["Kernel"].startswith("ignored")
    assert dispositions["World"].startswith("ignored")
    assert "relevant" in dispositions["TcpSocket"]
    assert "relevant" in dispositions["Task"]


def test_selfcheck_flags_unknown_annotation_and_bad_ignore():
    srcs = make_srcs(
        "class A:\n"
        "    __ckpt_ignore__ = (\"nope\",)\n"
        "    __ckpt_cadence__ = \"sometimes\"\n"
        "    def __init__(self):\n"
        "        self.x = 1  # ckpt: derrived -- typo\n",
    )
    text = "\n".join(analyze_source_set(srcs).problems)
    assert "derrived" in text
    assert "nonexistent field(s) nope" in text
    assert "sometimes" in text


def _strip_lines(text: str, needle: str) -> str:
    return "\n".join(l for l in text.splitlines() if needle not in l)


def acceptance_overrides():
    """Source overrides deleting Cgroup.cpuacct_usage_us's dump site (and
    its restore line, so the gap reads as a true CKPT101)."""
    root = Path(repro.__file__).resolve().parent
    cgroup_src = (root / "kernel/cgroup.py").read_text()
    restore_src = (root / "criu/restore.py").read_text()
    broken_cgroup = _strip_lines(
        cgroup_src, '"cpuacct_usage_us": self.cpuacct_usage_us'
    )
    broken_restore = re.sub(
        r'container\.cgroup\.cpuacct_usage_us = state\.cgroup\.get\(\s*'
        r'"cpuacct_usage_us", 0\s*\)',
        "pass",
        restore_src,
    )
    assert broken_cgroup != cgroup_src and broken_restore != restore_src
    ast.parse(broken_cgroup)
    ast.parse(broken_restore)
    return {
        "kernel/cgroup.py": broken_cgroup,
        "criu/restore.py": broken_restore,
    }


def test_acceptance_deleted_dump_site_is_ckpt101():
    """ISSUE acceptance: deleting one field's dump site (source override,
    nothing on disk changes) must surface as CKPT101."""
    report = analyze_coverage(overrides=acceptance_overrides())
    hits = [f for f in report.findings
            if f.rule_id == "CKPT101" and "Cgroup.cpuacct_usage_us" in f.message]
    assert hits, [str(f.message) for f in report.findings]
    assert ("Cgroup", "cpuacct_usage_us") in report.uncovered()


def test_deleted_dump_site_with_restore_intact_is_ckpt103():
    root = Path(repro.__file__).resolve().parent
    broken = _strip_lines(
        (root / "kernel/cgroup.py").read_text(),
        '"cpuacct_usage_us": self.cpuacct_usage_us',
    )
    report = analyze_coverage(overrides={"kernel/cgroup.py": broken})
    assert any(
        f.rule_id == "CKPT103" and "Cgroup.cpuacct_usage_us" in f.message
        for f in report.findings
    )


@pytest.mark.parametrize("key", ["kernel/zz_fixture.py", "src/repro/kernel/zz_fixture.py"])
def test_synthetic_override_is_analyzed_however_its_key_is_spelled(key):
    code = "class ZzWidget:\n    def __init__(self):\n        self.queue = []\n"
    report = analyze_coverage(overrides={key: code})
    assert [(f.rule_id, f.path) for f in report.findings if "zz_fixture" in f.path] == [
        ("CKPT100", "src/repro/kernel/zz_fixture.py")]


def test_override_matching_is_suffix_based():
    srcs = load_source_set(overrides={"src/repro/kernel/cgroup.py": "class X:\n    pass\n"})
    assert srcs.inventory["src/repro/kernel/cgroup.py"] == "class X:\n    pass\n"
