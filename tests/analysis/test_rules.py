"""Per-rule fixture tests: each rule flags its seeded violation and spares
the documented exemptions."""

from repro.analysis.coverage import analyze_coverage
from repro.analysis.linter import all_rules, lint_source
from repro.analysis.ndflow import analyze_ndflow


def run_rule(rule_id: str, source: str, path: str):
    return lint_source(source, path, rules=all_rules(select=[rule_id]))


# --------------------------------------------------------------------------- #
# DET001 — wall clock / OS entropy                                            #
# --------------------------------------------------------------------------- #
class TestDet001:
    def test_flags_wall_clock_and_entropy(self):
        src = (
            "import time, os, uuid\n"
            "from datetime import datetime\n"
            "def f():\n"
            "    a = time.time()\n"
            "    b = time.monotonic_ns()\n"
            "    c = os.urandom(8)\n"
            "    d = uuid.uuid4()\n"
            "    e = datetime.now()\n"
        )
        findings = run_rule("DET001", src, "src/repro/kernel/x.py")
        assert [f.line for f in findings] == [4, 5, 6, 7, 8]

    def test_flags_global_random_but_not_seeded_instances(self):
        # DET001 leaves the random module to ndflow's NDF001, which flags
        # the global instance's draw and spares an instance whose seed is
        # declared with an ``nd: seed`` annotation.
        src = (
            "import random\n"
            "def f():\n"
            "    bad = random.random()\n"
            "    ok = random.Random(7).random()  # nd: seed -- fixed seed\n"
        )
        assert run_rule("DET001", src, "src/repro/sim/x.py") == []
        report = analyze_ndflow(
            select=["NDF001"], overrides={"src/repro/sim/x.py": src})
        assert [(f.rule_id, f.line) for f in report.findings
                if f.path == "src/repro/sim/x.py"] == [("NDF001", 3)]

    def test_rng_module_is_exempt(self):
        src = "import os\ndef seed_material():\n    return os.urandom(8)\n"
        assert run_rule("DET001", src, "src/repro/sim/rng.py") == []

    def test_import_alias_still_resolved(self):
        src = "import time as t\ndef f():\n    return t.time()\n"
        findings = run_rule("DET001", src, "src/repro/kernel/x.py")
        assert [f.rule_id for f in findings] == ["DET001"]


# --------------------------------------------------------------------------- #
# DET002 — unordered collections                                              #
# --------------------------------------------------------------------------- #
class TestDet002:
    def test_flags_returned_set_and_annotation(self):
        src = (
            "def dirty() -> set[int]:\n"
            "    return {1, 2}\n"
        )
        findings = run_rule("DET002", src, "src/repro/kernel/mm2.py")
        assert len(findings) == 2  # annotation + the return itself

    def test_flags_iteration_over_set_local(self):
        src = (
            "def f(xs):\n"
            "    seen = set(xs)\n"
            "    for x in seen:\n"
            "        print(x)\n"
            "    return [y for y in seen]\n"
        )
        findings = run_rule("DET002", src, "src/repro/sim/x.py")
        assert [f.line for f in findings] == [3, 5]

    def test_flags_returned_dict_view(self):
        src = "def f(d):\n    return d.keys()\n"
        findings = run_rule("DET002", src, "src/repro/replication/x.py")
        assert [f.line for f in findings] == [2]

    def test_dict_iteration_not_flagged(self):
        # Python dicts are insertion-ordered; iterating them is fine.
        src = "def f(d):\n    for k in d:\n        print(k)\n"
        assert run_rule("DET002", src, "src/repro/kernel/x.py") == []

    def test_sorted_tuple_not_flagged(self):
        src = "def f(s):\n    return tuple(sorted(s))\n"
        assert run_rule("DET002", src, "src/repro/kernel/x.py") == []

    def test_out_of_scope_dirs_not_flagged(self):
        src = "def f() -> set[int]:\n    return {1}\n"
        assert run_rule("DET002", src, "src/repro/experiments/x.py") == []


# --------------------------------------------------------------------------- #
# DET003 — id()/hash() ordering                                               #
# --------------------------------------------------------------------------- #
class TestDet003:
    def test_flags_id_and_hash_in_event_paths(self):
        src = (
            "def order(items):\n"
            "    return sorted(items, key=id)\n"
            "def key(o):\n"
            "    return id(o)\n"
            "def ino(path):\n"
            "    return hash(path) & 0xFFFF\n"
        )
        findings = run_rule("DET003", src, "src/repro/criu/x.py")
        assert [f.line for f in findings] == [4, 6]  # sorted(key=id) has no Call

    def test_repr_is_exempt(self):
        src = (
            "class C:\n"
            "    def __repr__(self):\n"
            "        return f'<C {id(self):#x}>'\n"
            "    def __str__(self):\n"
            "        return str(hash(self))\n"
        )
        assert run_rule("DET003", src, "src/repro/sim/x.py") == []

    def test_shadowed_id_not_flagged(self):
        src = (
            "from mymod import id\n"
            "def f(o):\n"
            "    return id(o)\n"
        )
        assert run_rule("DET003", src, "src/repro/kernel/x.py") == []


# --------------------------------------------------------------------------- #
# SIM001 — blocking calls in generator processes                              #
# --------------------------------------------------------------------------- #
class TestSim001:
    def test_flags_blocking_calls_in_generator(self):
        src = (
            "import time, subprocess\n"
            "def proc(engine):\n"
            "    yield engine.timeout(5)\n"
            "    time.sleep(1)\n"
            "    subprocess.run(['ls'])\n"
            "    input()\n"
        )
        findings = run_rule("SIM001", src, "src/repro/workloads/x.py")
        assert [f.line for f in findings] == [4, 5, 6]

    def test_non_generator_not_flagged(self):
        src = "import time\ndef setup():\n    time.sleep(0.1)\n"
        assert run_rule("SIM001", src, "src/repro/workloads/x.py") == []

    def test_nested_def_inside_generator_not_flagged(self):
        # The nested plain function is its own (non-generator) scope.
        src = (
            "import time\n"
            "def proc(engine):\n"
            "    def helper():\n"
            "        time.sleep(1)\n"
            "    yield engine.timeout(5)\n"
        )
        assert run_rule("SIM001", src, "src/repro/sim/x.py") == []


# --------------------------------------------------------------------------- #
# EXC001 — broad except swallowing Interrupt                                  #
# --------------------------------------------------------------------------- #
class TestExc001:
    def test_flags_broad_except_in_generator(self):
        src = (
            "def proc(engine):\n"
            "    try:\n"
            "        yield engine.timeout(5)\n"
            "    except Exception:\n"
            "        pass\n"
        )
        findings = run_rule("EXC001", src, "src/repro/replication/x.py")
        assert [f.line for f in findings] == [4]

    def test_bare_except_also_flagged(self):
        src = (
            "def proc(engine):\n"
            "    try:\n"
            "        yield engine.timeout(5)\n"
            "    except:\n"
            "        pass\n"
        )
        assert len(run_rule("EXC001", src, "src/repro/sim/x.py")) == 1

    def test_preceding_interrupt_handler_makes_it_safe(self):
        src = (
            "from repro.sim.engine import Interrupt\n"
            "def proc(engine):\n"
            "    try:\n"
            "        yield engine.timeout(5)\n"
            "    except Interrupt:\n"
            "        raise\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert run_rule("EXC001", src, "src/repro/replication/x.py") == []

    def test_reraise_inside_handler_is_safe(self):
        src = (
            "def proc(engine):\n"
            "    try:\n"
            "        yield engine.timeout(5)\n"
            "    except Exception:\n"
            "        if engine.failed:\n"
            "            return\n"
            "        raise\n"
        )
        assert run_rule("EXC001", src, "src/repro/replication/x.py") == []

    def test_non_generator_broad_except_not_flagged(self):
        src = (
            "def main():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert run_rule("EXC001", src, "src/repro/cli.py") == []


# --------------------------------------------------------------------------- #
# CKPT001's shapes — unserialized checkpoint state, now caught by ckptcov     #
# --------------------------------------------------------------------------- #
class TestCkpt001:
    """The shapes the retired per-file rule CKPT001 flagged, placed in
    ``kernel/`` next to the real dump and restore paths: ckptcov's
    CKPT101 and CKPT103 flag each one."""

    PATH = "src/repro/kernel/zz_fixture.py"

    def ckptcov(self, src: str):
        report = analyze_coverage(overrides={self.PATH: src})
        return [f for f in report.findings if f.path == self.PATH]

    def test_flags_unserialized_mutable_field(self):
        src = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Widget:\n"
            "    name: str = 'w'\n"
            "    queue: list = field(default_factory=list)\n"
            "    def describe(self):\n"
            "        return {'name': self.name}\n"
        )
        findings = self.ckptcov(src)
        assert [f.rule_id for f in findings] == ["CKPT101"]
        assert "Widget.queue" in findings[0].message

    def test_init_assigned_mutable_fields_checked(self):
        src = (
            "class Sock:\n"
            "    def __init__(self):\n"
            "        self.seq = 0\n"
            "        self.queue = []\n"
            "    def get_repair_state(self):\n"
            "        return {'seq': self.seq}\n"
        )
        gaps = [f.message for f in self.ckptcov(src) if f.rule_id == "CKPT101"]
        assert len(gaps) == 1 and "Sock.queue" in gaps[0]

    def test_restore_reading_unserialized_key_flagged(self):
        src = (
            "class Widget:\n"
            "    def __init__(self):\n"
            "        self.name = 'w'\n"
            "    def describe(self):\n"
            "        return {'name': self.name}\n"
            "    def restore_from(self, desc):\n"
            "        self.name = desc['name']\n"
            "        self.extra = desc['missing']\n"
        )
        findings = self.ckptcov(src)
        assert [f.rule_id for f in findings] == ["CKPT103"]
        assert "Widget.extra" in findings[0].message
