"""Tests for the skeleton the four inventory analyzers share.

The annotation selfcheck is one check for the whole family, carried in
each analyzer's report as ``problems``, so its two rejections — an
unknown class and an annotation that classifies nothing — are pinned
here once per analyzer; the checks specific to one analyzer stay in its
own suite.  The loader's override rules are pinned
directly: every analyzer's synthetic-source tests rely on them.
"""

import textwrap

import pytest

from repro.analysis.coverage import SourceSet, analyze_source_set
from repro.analysis.ftcov import analyze_ftcov
from repro.analysis.inventory import load_sources
from repro.analysis.ndflow import analyze_ndflow
from repro.analysis.perf import analyze_perf

_SCOPE = "replication/zz_scope.py"


def _ckptcov(code):
    srcs = SourceSet(inventory={"src/repro/kernel/zz.py": code},
                     dump={}, restore={}, wrappers={})
    return analyze_source_set(srcs).problems


def _perf(code):
    report = analyze_perf(overrides={"sim/engine.py": code}, roots=())
    return [p for p in report.problems if "sim/engine.py" in p]


def _ndflow(code):
    return [p for p in analyze_ndflow(overrides={_SCOPE: code}).problems
            if _SCOPE in p]


def _ftcov(code):
    return [p for p in analyze_ftcov(overrides={_SCOPE: code}).problems
            if _SCOPE in p]


@pytest.mark.parametrize("selfcheck, code, expected", [
    (_ckptcov, """
        class ZzState:
            def __init__(self):
                self.x = 1  # ckpt: derrived -- typo
        """, "unknown ckpt annotation 'derrived'"),
    (_perf, """
        def zz_fn():  # hot: blazing -- not a class
            pass
        """, "unknown hotness 'blazing'"),
    (_ndflow, """
        def zz_make(world):
            return world.rng.stream("zz-x")  # nd: quantum -- what
        """, "unknown nd class 'quantum'"),
    (_ftcov, """
        def zz_wait(engine, flag):
            while not flag.done:  # ft: bogus -- not a class
                yield engine.timeout(5)
        """, "unknown ft class 'bogus'"),
], ids=["ckptcov", "perf", "ndflow", "ftcov"])
def test_selfcheck_rejects_unknown_vocabulary(selfcheck, code, expected):
    problems = selfcheck(textwrap.dedent(code))
    assert any(expected in p for p in problems), problems
    # The annotation sits on an inventoried site: only the class is wrong.
    assert not any("classifies nothing" in p for p in problems)


@pytest.mark.parametrize("selfcheck, code, expected", [
    (_ckptcov, """
        class ZzState:
            def __init__(self):
                self.x = 1
            def describe(self):
                return {"x": self.x}  # ckpt: derived -- not on an assignment
        """, "'# ckpt:' annotation is not on a field-assignment line"),
    (_perf, """
        def zz_fn():
            x = 1
            return x  # hot: per-event -- not on a def header
        """, "'# hot:' annotation is not on a function def header"),
    (_ndflow, """
        ZZ_LIMIT = 3  # nd: seed -- not a source at all
        """, "'nd:' annotation is not on an inventoried nondeterminism"),
    (_ftcov, """
        ZZ_PLAIN = 1  # ft: defensive -- classifies nothing
        """, "'ft:' annotation is not on an inventoried failure-handling"),
], ids=["ckptcov", "perf", "ndflow", "ftcov"])
def test_selfcheck_rejects_orphan_annotation(selfcheck, code, expected):
    problems = selfcheck(textwrap.dedent(code))
    assert any(expected in p and "classifies nothing" in p
               for p in problems), problems


@pytest.mark.parametrize("key", [
    "sim/engine.py",
    "src/repro/sim/engine.py",
    "src\\repro\\sim\\engine.py",
])
def test_override_key_replaces_the_scope_file(key):
    plain = load_sources(("sim/",))
    sources = load_sources(("sim/",), {key: "ZZ = 1\n"})
    assert sources["src/repro/sim/engine.py"] == "ZZ = 1\n"
    # Replaced in place, never appended next to the real file.
    assert sources.keys() == plain.keys()


def test_unmatched_override_key_is_appended_as_a_synthetic_source():
    # Stored under the display-path form whichever way the key is spelled,
    # so every analyzer's path-scoped corpora and rules see it alike.
    for key in (_SCOPE, f"src/repro/{_SCOPE}"):
        sources = load_sources(("sim/engine.py",), {key: "ZZ = 1\n"})
        assert list(sources) == ["src/repro/sim/engine.py", f"src/repro/{_SCOPE}"]
        assert sources[f"src/repro/{_SCOPE}"] == "ZZ = 1\n"


def test_scope_directories_expand_to_their_python_files():
    whole = load_sources(("",))
    sim = load_sources(("sim/",))
    assert "src/repro/cli.py" in whole
    assert "src/repro/sim/engine.py" in sim
    assert set(sim) < set(whole)
    assert all(path.startswith("src/repro/sim/") for path in sim)
    assert not any("__pycache__" in path for path in whole)
