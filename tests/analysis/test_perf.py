"""Tests for the hot-path analyzer's static layers (classification + rules).

Synthetic scope-file overrides exercise the classifier and each PERF rule
in isolation (unique ``zz_``-prefixed names keep the name-based call graph
from reaching real code); the real-tree tests pin the analyzer's verdict
on the actual package.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.inventory import load_sources
from repro.analysis.perf import (
    DEFAULT_ROOTS,
    PERF_SCOPE_FILES,
    analyze_perf,
    build_hot_map,
)


def classify(code, roots):
    sources = load_sources(
        PERF_SCOPE_FILES, {"sim/engine.py": textwrap.dedent(code)})
    return build_hot_map(sources, roots)


def analyze(code, roots, select=None):
    report = analyze_perf(
        select=select,
        overrides={"sim/engine.py": textwrap.dedent(code)},
        roots=roots,
    )
    return [f for f in report.findings if f.path.endswith("sim/engine.py")]


def selfcheck(code, roots):
    return analyze_perf(overrides={"sim/engine.py": textwrap.dedent(code)},
                        roots=roots).problems


@pytest.fixture(scope="module")
def real():
    """One static pass over the real tree, shared by its tests."""
    return analyze_perf()


# --------------------------------------------------------------------------- #
# Layer 1: classification                                                     #
# --------------------------------------------------------------------------- #


def test_reachability_from_root():
    hot = classify(
        """
        def zz_root():
            zz_helper()

        def zz_helper():
            zz_deep()

        def zz_deep():
            pass

        def zz_unreachable():
            pass
        """,
        roots=(("zz_root", "per-event"),),
    )
    assert hot["zz_root"].hotness == "per-event"
    assert hot["zz_helper"].hotness == "per-event"
    assert hot["zz_deep"].hotness == "per-event"
    assert hot["zz_unreachable"].hotness is None


def test_strongest_class_wins_on_shared_paths():
    hot = classify(
        """
        def zz_epoch_root():
            zz_shared()

        def zz_event_root():
            zz_shared()

        def zz_shared():
            pass
        """,
        roots=(
            ("zz_epoch_root", "per-epoch"),
            ("zz_event_root", "per-event"),
        ),
    )
    assert hot["zz_shared"].hotness == "per-event"


def test_method_calls_propagate_by_name():
    hot = classify(
        """
        class ZzA:
            def zz_entry(self):
                self.zz_work()

        class ZzB:
            def zz_work(self):
                pass
        """,
        roots=(("ZzA.zz_entry", "per-page"),),
    )
    # Name-based over-approximation: x.zz_work() reaches every zz_work.
    assert hot["ZzB.zz_work"].hotness == "per-page"


def test_header_annotation_seeds_classification():
    hot = classify(
        """
        def zz_isolated():  # hot: per-page -- called from C, invisible here
            zz_callee()

        def zz_callee():
            pass
        """,
        roots=(),
    )
    assert hot["zz_isolated"].hotness == "per-page"
    assert hot["zz_isolated"].declared == "per-page"
    assert hot["zz_callee"].hotness == "per-page"


def test_multiline_def_header_annotation():
    hot = classify(
        """
        def zz_spread(
            a,
            b,
        ):  # hot: per-event -- annotation on the closing-paren line
            pass
        """,
        roots=(),
    )
    assert hot["zz_spread"].hotness == "per-event"


def test_exempt_annotation_blocks_classification_and_propagation():
    hot = classify(
        """
        def zz_root():
            zz_reference()

        def zz_reference():  # hot: exempt -- bench reference only
            zz_downstream()

        def zz_downstream():
            pass
        """,
        roots=(("zz_root", "per-event"),),
    )
    assert hot["zz_reference"].exempt
    assert hot["zz_reference"].hotness is None
    # Exempt functions neither receive nor forward hotness.
    assert hot["zz_downstream"].hotness is None


def test_perf_exempt_class_attribute():
    hot = classify(
        """
        class ZzInstrument:
            __perf_exempt__ = True

            def zz_probe(self):
                pass

        def zz_root():
            zz_probe()
        """,
        roots=(("zz_root", "per-event"),),
    )
    assert hot["ZzInstrument.zz_probe"].exempt
    assert hot["ZzInstrument.zz_probe"].hotness is None


# --------------------------------------------------------------------------- #
# Layer 1: selfcheck                                                          #
# --------------------------------------------------------------------------- #


def test_selfcheck_flags_unreachable_root():
    problems = selfcheck("def zz_fn():\n    pass\n",
                         roots=(("zz_missing_root", "per-event"),))
    assert any("zz_missing_root" in p for p in problems)


def test_selfcheck_flags_understated_annotation():
    problems = selfcheck(
        """
        def zz_root():
            zz_understated()

        def zz_understated():  # hot: per-epoch -- stale claim
            pass
        """,
        roots=(("zz_root", "per-event"),),
    )
    assert any("understates" in p for p in problems)


def test_selfcheck_real_tree_is_clean(real):
    assert real.problems == []
    # Each row is "path:line  qualname"; look the functions up by name.
    dispositions = {item.split()[-1]: cls
                    for item, cls in real.dispositions.items()}
    # The documented roots are all classified.
    for qualname, hotness in DEFAULT_ROOTS:
        assert dispositions[qualname].startswith(hotness)
    # The exemption vocabulary is in live use.
    assert dispositions["SimProfiler.hit"] == "exempt"
    assert dispositions["HostPool._load_scan"] == "exempt"


# --------------------------------------------------------------------------- #
# Layer 2: rules                                                              #
# --------------------------------------------------------------------------- #

_EVENT_ROOT = (("zz_hot", "per-event"),)
_EPOCH_ROOT = (("zz_hot", "per-epoch"),)


def test_perf001_allocation_in_hot_loop():
    findings = analyze(
        """
        def zz_hot(self):
            for item in self.items:
                row = [part for part in item.parts]
                box = dict(k=item)
        """,
        roots=_EVENT_ROOT,
        select=["PERF001"],
    )
    assert [f.rule_id for f in findings] == ["PERF001", "PERF001"]


def test_perf001_not_reported_per_epoch_or_cold():
    code = """
        def zz_hot(self):
            for item in self.items:
                row = [part for part in item.parts]

        def zz_cold(self):
            for item in self.items:
                row = [part for part in item.parts]
        """
    # per-epoch: building a list once per epoch is fine.
    assert analyze(code, roots=_EPOCH_ROOT, select=["PERF001"]) == []
    # cold function with the same body: never linted.
    assert analyze(code, roots=(), select=["PERF001"]) == []


def test_perf002_hashing_in_hot_loop_and_suppression():
    code = """
        import zlib

        def zz_hot(self):
            for page in self.pages:
                self.crc = zlib.crc32(page)
        """
    findings = analyze(code, roots=_EPOCH_ROOT, select=["PERF002"])
    assert [f.rule_id for f in findings] == ["PERF002"]

    suppressed = code.replace(
        "zlib.crc32(page)",
        "zlib.crc32(page)  # nlint: disable=PERF002 -- dirty pages only",
    )
    assert analyze(suppressed, roots=_EPOCH_ROOT, select=["PERF002"]) == []


def test_perf003_sort_per_event_and_in_hot_loops():
    # sorted() anywhere in a per-event function fires...
    findings = analyze(
        """
        def zz_hot(self):
            return sorted(self.keys)
        """,
        roots=_EVENT_ROOT,
        select=["PERF003"],
    )
    assert [f.rule_id for f in findings] == ["PERF003"]
    # ...but in a per-epoch function only loop bodies fire.
    code = """
        def zz_hot(self):
            once = sorted(self.keys)
            for group in self.groups:
                group.members.sort()
        """
    findings = analyze(code, roots=_EPOCH_ROOT, select=["PERF003"])
    assert len(findings) == 1
    assert ".sort()" in findings[0].message


def test_perf004_repeated_attribute_chain():
    findings = analyze(
        """
        def zz_hot(self):
            for item in self.items:
                self.engine.emit(item)
                self.engine.emit(item.left)
                self.engine.emit(item.right)
        """,
        roots=_EVENT_ROOT,
        select=["PERF004"],
    )
    assert [f.rule_id for f in findings] == ["PERF004"]
    assert "'self.engine.emit'" in findings[0].message


def test_perf004_two_lookups_do_not_fire():
    assert analyze(
        """
        def zz_hot(self):
            for item in self.items:
                self.engine.emit(item)
                self.engine.emit(item.left)
        """,
        roots=_EVENT_ROOT,
        select=["PERF004"],
    ) == []


def test_perf005_lambda_per_event():
    findings = analyze(
        """
        def zz_hot(self):
            return min(self.hosts, key=lambda h: h.load)
        """,
        roots=_EVENT_ROOT,
        select=["PERF005"],
    )
    assert [f.rule_id for f in findings] == ["PERF005"]
    # The same lambda in a per-epoch function (outside loops) is fine.
    assert analyze(
        """
        def zz_hot(self):
            return min(self.hosts, key=lambda h: h.load)
        """,
        roots=_EPOCH_ROOT,
        select=["PERF005"],
    ) == []


def test_perf006_aggregate_scans():
    findings = analyze(
        """
        def zz_hot(self):
            return sum(1 for host in self.allocations.values() if host)

        def zz_hot_loop(self):
            count = 0
            for key, value in self.table.items():
                if value:
                    count += 1
            return count
        """,
        roots=(("zz_hot", "per-event"), ("zz_hot_loop", "per-event")),
        select=["PERF006"],
    )
    assert [f.rule_id for f in findings] == ["PERF006", "PERF006"]
    assert "'self.allocations.values'" in findings[0].message
    assert "'self.table'" in findings[1].message


def test_perf006_transforming_loop_does_not_fire():
    # A loop that does real per-item work is not an aggregate scan.
    assert analyze(
        """
        def zz_hot(self):
            for key, value in self.table.items():
                self.emit(key, value)
        """,
        roots=_EVENT_ROOT,
        select=["PERF006"],
    ) == []


# --------------------------------------------------------------------------- #
# Real tree                                                                   #
# --------------------------------------------------------------------------- #


def _real_findings(report, rule_id, path):
    return [f for f in report.findings
            if f.rule_id == rule_id and f.path.endswith(path)]


def test_real_tree_digest_debt_is_paid(real):
    # The digest loop carries a justified suppression: it hashes only the
    # dirty pages — the statecache must stay clean under PERF002.
    assert not _real_findings(real, "PERF002", "replication/statecache.py"), (
        "statecache digest loop regressed to whole-buffer hashing")


def test_real_tree_disk_commit_scan_debt_is_paid(real):
    # The per-epoch sum() over every drbd buffer was the last PERF006
    # debt; commit now pops a counter maintained at dispatch time.
    assert not _real_findings(real, "PERF006", "replication/backup.py"), (
        "backup commit regressed to rescanning the drbd buffers")


def test_real_tree_pair_count_scan_debt_is_paid(real):
    # pair_count used to be the documented PERF006 debt (a full member
    # scan per call); it is now an O(1) maintained index, with the scan
    # kept only as the exempt reference implementation for the
    # equivalence test — so pool.py must stay clean.
    assert not _real_findings(real, "PERF006", "fleet/pool.py"), (
        "HostPool.pair_count regressed to a full scan")


def test_real_tree_engine_dispatch_loop_is_clean(real):
    assert [f for f in real.findings if f.path.endswith("sim/engine.py")] == []


def test_real_tree_call_later_is_per_event(real):
    # One Call per packet hop: call_later is a root like _schedule, so
    # PERF001..006 lint it as per-event code.
    assert ("Engine.call_later", "per-event") in DEFAULT_ROOTS
    hot = real.hot_map
    assert hot["Engine.call_later"].hotness == "per-event"
    assert hot["Engine.call_later"].path.endswith("sim/engine.py")


def test_real_tree_findings_match_checked_in_baseline(real):
    from repro.analysis.baseline import apply_baseline, load_baseline
    from repro.analysis.inventory import analyzer_of

    baseline_file = (
        Path(__file__).resolve().parents[2] / "lint-baseline.json")
    baseline = {fp: n for fp, n in load_baseline(baseline_file).items()
                if analyzer_of(fp.split("::", 1)[0]) == "perf"}
    part = apply_baseline(real.findings, baseline)
    assert part.new == [], "un-baselined PERF findings: run repro lint"
    assert part.stale == [], "stale perf entries in lint-baseline.json"
