"""Tests for the nondeterminism-provenance analyzer's static layers.

Synthetic scope-file overrides exercise the inventory, the selfcheck and
each NDF rule in isolation (``zz_``-prefixed names keep clear of real
code); the real-tree tests pin the ISSUE acceptance criteria: the
selfcheck accounts for every source in the package, the drift guard
covers every module-level id counter, and the only NDF findings are the
two frozen ``unsafe_unlogged_draw`` knob entries.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.inventory import load_sources
from repro.analysis.ndflow import (
    NDFLOW_SCOPE,
    analyze_ndflow,
    build_nd_inventory,
)

_SCOPE = "replication/zz_scope.py"


def inventory(code, path=_SCOPE):
    sources = load_sources(NDFLOW_SCOPE, {path: textwrap.dedent(code)})
    inv = build_nd_inventory(sources)
    return [s for s in inv.sites if s.path.endswith(path)]


def findings(code, select=None, path=_SCOPE):
    report = analyze_ndflow(
        select=select, overrides={path: textwrap.dedent(code)})
    return [f for f in report.findings if f.path.endswith(path)]


def selfcheck_problems(code, path=_SCOPE):
    report = analyze_ndflow(overrides={path: textwrap.dedent(code)})
    return [p for p in report.problems if path in p]


@pytest.fixture(scope="module")
def real():
    """One static pass over the real tree, shared by its tests."""
    return analyze_ndflow()


# --------------------------------------------------------------------------- #
# Layer 1: inventory + classification                                         #
# --------------------------------------------------------------------------- #


def test_literal_stream_site_is_auto_logged():
    (src,) = inventory(
        """
        def zz_make(world):
            return world.rng.stream("zz-literal")
        """
    )
    assert src.kind == "stream"
    assert src.name == "zz-literal"
    assert not src.dynamic
    assert src.site_class == "logged"


def test_dynamic_stream_name_needs_annotation():
    (src,) = inventory(
        """
        def zz_make(world, name):
            return world.rng.stream(f"zz-{name}")
        """
    )
    assert src.dynamic
    assert src.site_class is None


def test_annotation_classifies_and_carries_why():
    (src,) = inventory(
        """
        def zz_make(world, name):
            return world.rng.stream(name)  # nd: logged -- caller-chosen
        """
    )
    assert src.annotated == "logged"
    assert src.why == "caller-chosen"
    assert src.accounted


def test_bare_random_is_unaccounted_by_default():
    (src,) = inventory(
        """
        import random

        def zz_jitter():
            return random.random()
        """
    )
    assert src.kind == "global-random"
    assert src.site_class is None


@pytest.mark.parametrize("binding, call", [
    ("import random as rnd", "rnd.choice(xs)"),
    ("from random import choice", "choice(xs)"),
], ids=["module-alias", "from-import"])
def test_random_draws_resolve_through_import_bindings(binding, call):
    # Outside the control paths, so NDF003's receiver check cannot see it.
    path = "metrics/zz_scope.py"
    report = analyze_ndflow(overrides={
        path: f"{binding}\n\ndef zz_pick(xs):\n    return {call}\n"})
    sites = [(s.kind, s.name) for s in report.inventory.sites
             if s.path.endswith(path)]
    assert sites == [("global-random", "random.choice")]
    assert [f.rule_id for f in report.findings
            if f.path.endswith(path)] == ["NDF001"]
    assert any("unaccounted nondeterminism source global-random" in p
               for p in report.problems if path in p)


def test_nd_exempt_class_spans_are_skipped():
    assert inventory(
        """
        import random

        class ZzInstrument:
            __nd_exempt__ = True

            def sample(self):
                return random.random()
        """
    ) == []


def test_tiebreak_policy_is_auto_seed():
    (src,) = inventory(
        """
        class ZzPolicy:
            def key(self, ctx_serial):
                return ctx_serial
        """
    )
    assert src.kind == "tiebreak"
    assert src.site_class == "seed"


def test_unregistered_module_counter_is_flagged():
    (src,) = inventory(
        """
        import itertools

        zz_ids = itertools.count()
        """
    )
    assert src.kind == "counter"
    assert src.registered is False
    assert src.site_class is None


# --------------------------------------------------------------------------- #
# Layer 1.5: selfcheck                                                        #
# --------------------------------------------------------------------------- #


def test_selfcheck_rejects_unaccounted_sources():
    problems = selfcheck_problems(
        """
        import random

        def zz_jitter():
            return random.random()
        """
    )
    assert any("unaccounted nondeterminism source" in p for p in problems)


def test_selfcheck_flags_unregistered_counter_as_drift():
    problems = selfcheck_problems(
        """
        import itertools

        zz_ids = itertools.count()  # nd: counter -- registered elsewhere, honest
        """
    )
    assert any("not rewound by reset_id_counters" in p for p in problems)


def test_selfcheck_accepts_annotated_unsafe():
    # 'unsafe' is accounted for the selfcheck (an honest declaration) even
    # though the NDF rules keep flagging it.
    problems = selfcheck_problems(
        """
        import random

        def zz_jitter():
            return random.random()  # nd: unsafe -- deliberate hazard
        """
    )
    assert problems == []


# --------------------------------------------------------------------------- #
# Layer 2: rules                                                              #
# --------------------------------------------------------------------------- #


def test_ndf001_flags_bare_entropy():
    # The global instance's draw, in a control path and in the engine.
    for path in (_SCOPE, "sim/zz_scope.py"):
        hits = findings(
            """
            import random

            def zz_jitter():
                return random.random()
            """,
            select=["NDF001"],
            path=path,
        )
        assert [f.rule_id for f in hits] == ["NDF001"], path


def test_ndf001_respects_seed_annotation():
    assert findings(
        """
        import random

        def zz_stable(seed):
            return random.Random(seed)  # nd: seed -- derived from the seed
        """,
        select=["NDF001"],
    ) == []


def test_ndf001_still_fires_on_declared_unsafe():
    hits = findings(
        """
        import random

        def zz_jitter():
            return random.random()  # nd: unsafe -- knob
        """,
        select=["NDF001"],
    )
    assert [f.rule_id for f in hits] == ["NDF001"]


def test_ndf002_flags_unannotated_dynamic_stream_name():
    hits = findings(
        """
        def zz_make(world, name):
            return world.rng.stream(f"zz-{name}")
        """,
        select=["NDF002"],
    )
    assert [f.rule_id for f in hits] == ["NDF002"]


def test_ndf002_accepts_annotated_dynamic_name():
    assert findings(
        """
        def zz_make(world, name):
            return world.rng.stream(f"zz-{name}")  # nd: logged -- a stream either way
        """,
        select=["NDF002"],
    ) == []


def test_ndf003_flags_unrouted_control_path_draw():
    hits = findings(
        """
        def zz_decide(self):
            return self.gen.choice([1, 2, 3])
        """,
        select=["NDF003"],
    )
    assert [f.rule_id for f in hits] == ["NDF003"]


def test_ndf003_accepts_stream_bound_receivers():
    assert findings(
        """
        class ZzAgent:
            def __init__(self, world):
                self.gen = world.rng.stream("zz-agent")

            def zz_decide(self):
                return self.gen.choice([1, 2, 3])
        """,
        select=["NDF003"],
    ) == []


def test_ndf003_ignores_non_control_paths():
    assert findings(
        """
        def zz_decide(self):
            return self.gen.choice([1, 2, 3])
        """,
        select=["NDF003"],
        path="workloads/zz_scope.py",
    ) == []


def test_ndf004_flags_unregistered_counter():
    hits = findings(
        """
        import itertools

        zz_ids = itertools.count()
        """,
        select=["NDF004"],
    )
    assert [f.rule_id for f in hits] == ["NDF004"]


def test_ndf005_flags_shared_stream_without_owner():
    report = analyze_ndflow(
        select=["NDF005"],
        overrides={
            "replication/zz_one.py": "def a(w):\n    return w.rng.stream('zz-shared')\n",
            "fleet/zz_two.py": "def b(w):\n    return w.rng.stream('zz-shared')\n",
        },
    )
    hits = [f for f in report.findings if "zz_" in f.path]
    assert len(hits) == 2
    assert all(f.rule_id == "NDF005" for f in hits)
    assert all("zz-shared" in f.message for f in hits)


def test_ndf005_accepts_owned_shared_stream(real):
    # 'fault-injection' is drawn from several modules but has a
    # STREAM_OWNERS entry — the real tree must stay clean.
    assert not any(
        "fault-injection" in f.message
        for f in real.findings if f.rule_id == "NDF005"
    )


def test_suppression_comment_silences_a_rule():
    assert findings(
        """
        import random

        def zz_jitter():
            return random.random()  # nlint: disable=NDF001 -- test fixture
        """,
        select=["NDF001"],
    ) == []


# --------------------------------------------------------------------------- #
# Real tree                                                                   #
# --------------------------------------------------------------------------- #


def test_real_tree_selfcheck_is_clean(real):
    assert real.problems == []
    assert len(real.dispositions) >= 20  # streams, counters, knobs, tiebreaks


def test_real_tree_every_counter_is_registered(real):
    counters = [s for s in real.inventory.sites if s.kind == "counter"]
    assert len(counters) >= 6  # tid, pid, ino, ns, seq, mac
    assert all(s.registered for s in counters)


def test_real_tree_findings_are_exactly_the_knob(real):
    assert [(f.rule_id, f.path) for f in real.findings] == [
        ("NDF001", "src/repro/replication/primary.py"),
        ("NDF003", "src/repro/replication/primary.py"),
    ]


def test_real_tree_findings_match_checked_in_baseline(real):
    from repro.analysis.baseline import apply_baseline, load_baseline
    from repro.analysis.inventory import analyzer_of

    baseline_file = (
        Path(__file__).resolve().parents[2] / "lint-baseline.json")
    baseline = {fp: n for fp, n in load_baseline(baseline_file).items()
                if analyzer_of(fp.split("::", 1)[0]) == "ndflow"}
    part = apply_baseline(real.findings, baseline)
    assert part.new == [], "un-baselined NDF findings: run repro lint"
    assert part.stale == [], "stale ndflow entries in lint-baseline.json"
