"""Tests for the command-line interface."""

import importlib
import json

import pytest

from repro.cli import build_parser, main


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("redis", "ssdb", "node", "lighttpd", "djcms", "swaptions",
                 "streamcluster", "disk-rw", "net-echo"):
        assert name in out


def test_modes_list(capsys):
    assert main(["modes", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("stock", "nilicon", "hycor", "mc"):
        assert name in out
    assert "log-commit" in out and "checkpoint-commit" in out


def test_bench_server(capsys):
    assert main(["bench", "net", "--mode", "stock", "--duration-ms", "500"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out and "0 errors" in out


def test_bench_nilicon_shows_epoch_stats(capsys):
    assert main(["bench", "net", "--mode", "nilicon", "--duration-ms", "500"]) == 0
    out = capsys.readouterr().out
    assert "avg stop" in out and "stopped fraction" in out


def test_bench_compute(capsys):
    assert main(["bench", "swaptions", "--mode", "stock"]) == 0
    out = capsys.readouterr().out
    assert "completion" in out


def test_paper_artifact_prints_only_its_table(monkeypatch, capsys):
    """``repro paper table2`` runs that one artifact's runner and prints its
    title and table (the runner is stubbed: no simulation)."""
    from repro.experiments import paper, table2

    row = {"benchmark": "net", "restore_ms": 230.0, "arp_ms": 28.0,
           "tcp_ms": 40.0, "total_ms": 300.0, "paper": table2.PAPER_TABLE2["net"]}
    runs = []

    def run(paper_run):
        runs.append((paper_run.smoke, paper_run.seed))
        return [row]

    artifact = paper.ARTIFACTS["table2"]
    monkeypatch.setitem(paper.ARTIFACTS, "table2", artifact._replace(run=run))
    assert main(["paper", "table2"]) == 0
    assert runs == [(False, 1)]
    assert capsys.readouterr().out == (
        f"{artifact.title}\n{table2.format_rows([row])}\n")
    assert main(["paper", "table2", "--out", "x.json"]) == 2


def test_paper_bench_prints_every_table_then_gates_one_run(monkeypatch, capsys):
    """``repro paper bench --smoke`` runs each smoke artifact once, all off
    one shared run, prints every table, then the bench report (runners
    stubbed with empty rows: no simulation)."""
    from repro.experiments import paper

    runs = []
    for name, artifact in list(paper.ARTIFACTS.items()):
        monkeypatch.setitem(paper.ARTIFACTS, name, artifact._replace(
            run=lambda paper_run, name=name: runs.append((name, paper_run)) or []))
    assert main(["paper", "bench", "--smoke"]) == 0
    smoke = [name for name, artifact in paper.ARTIFACTS.items() if artifact.smoke]
    assert [name for name, _ in runs] == smoke
    assert {id(paper_run) for _, paper_run in runs} == {id(runs[0][1])}
    assert "hycor" in smoke and "table6" not in smoke
    tables, bench = capsys.readouterr().out.split("paper bench (seed 1, smoke) — ok")
    assert all(paper.ARTIFACTS[name].title in tables for name in smoke)
    assert paper.ARTIFACTS["table6"].title not in tables


def test_paper_unknown_artifact_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paper", "table9"])
    assert exc.value.code == 2
    assert "invalid choice: 'table9'" in capsys.readouterr().err


def test_failover_command(capsys):
    assert main(["failover", "net"]) == 0
    out = capsys.readouterr().out
    assert "recovered" in out


def test_lint_clean_tree_exits_zero(capsys):
    # Every finding of the package is one of lint-baseline.json's entries.
    assert main(["lint", "--baseline", "lint-baseline.json"]) == 0
    out = capsys.readouterr().out
    assert "nlint: no findings" in out
    assert "4 known finding(s) baselined by lint-baseline.json" in out


def test_lint_findings_exit_nonzero(monkeypatch, capsys):
    # `repro lint` lints the package; put a violation into it.
    from repro.analysis import inventory

    real = inventory.load_sources
    monkeypatch.setattr(inventory, "load_sources", lambda scope: real(
        scope, {"src/repro/kernel/zz_bad.py":
                "import time\ndef f():\n    return time.time()\n"}))
    assert main(["lint", "--select", "DET001"]) == 1
    assert "src/repro/kernel/zz_bad.py:3:11: DET001" in capsys.readouterr().out


def test_lint_unknown_rule_exits_two(capsys):
    assert main(["lint", "--select", "NOPE999"]) == 2


def test_lint_list_rules_covers_every_analyzer_family(capsys):
    from repro.analysis.coverage import COVERAGE_RULE_IDS
    from repro.analysis.ftcov import FTCOV_RULE_IDS
    from repro.analysis.ndflow import NDFLOW_RULE_IDS
    from repro.analysis.perf import PERF_RULE_IDS

    assert main(["lint", "--list-rules"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    for ids in (COVERAGE_RULE_IDS, PERF_RULE_IDS, NDFLOW_RULE_IDS,
                FTCOV_RULE_IDS):
        assert set(ids) <= listed
    assert "CKPT001" not in listed


def _make_unsound(monkeypatch, module, analyze):
    """Make *module*'s ``analyze`` report carry a selfcheck problem."""
    mod = importlib.import_module(module)
    real = getattr(mod, analyze)

    def unsound(**kwargs):
        report = real(**kwargs)
        report.problems = ["boom"]
        return report

    monkeypatch.setattr(mod, analyze, unsound)


@pytest.mark.parametrize("module, analyze, name", [
    ("repro.analysis.coverage", "analyze_coverage", "ckptcov"),
    ("repro.analysis.perf", "analyze_perf", "perf"),
    ("repro.analysis.ndflow", "analyze_ndflow", "ndflow"),
    ("repro.analysis.ftcov", "analyze_ftcov", "ftcov"),
], ids=["ckptcov", "perf", "ndflow", "ftcov"])
def test_every_lint_gates_on_its_selfcheck(module, analyze, name,
                                           monkeypatch, capsys):
    # `repro analyze` runs no standalone selfcheck step: the lint must
    # refuse to run on the problems an analyzer's own report carries.
    _make_unsound(monkeypatch, module, analyze)
    assert main(["lint"]) == 1
    out = capsys.readouterr().out
    assert f"run `repro {name} selfcheck`" in out and "boom" in out
    assert "nlint" not in out  # no findings were printed


@pytest.mark.parametrize("module, analyze, argv", [
    ("repro.analysis.coverage", "analyze_coverage", ["ckptcov", "diff"]),
    ("repro.analysis.ndflow", "analyze_ndflow", ["ndflow", "replay"]),
    ("repro.analysis.ftcov", "analyze_ftcov", ["ftcov", "record"]),
], ids=["ckptcov", "ndflow", "ftcov"])
def test_every_dynamic_action_gates_on_its_selfcheck(module, analyze, argv,
                                                     monkeypatch, capsys):
    # Each dynamic action reads its inventory from the static pass, so an
    # unsound inventory stops it before any cell runs.
    _make_unsound(monkeypatch, module, analyze)
    assert main([*argv, "--smoke"]) == 1
    out = capsys.readouterr().out
    assert f"run `repro {argv[0]} selfcheck`" in out and "boom" in out


def test_ckptcov_diff_runs_the_oracle_against_the_static_pass(capsys):
    assert main(["ckptcov", "diff", "--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "oracle ssdb", "oracle net-echo"]
    assert all(": clean (" in line for line in lines)


def test_audit_command(capsys):
    assert main(["audit", "net", "--run-ms", "400"]) == 0
    out = capsys.readouterr().out
    assert "invariants held" in out and "epoch(s)" in out


@pytest.mark.parametrize("argv", [["fleet", "campaign"], ["traffic", "campaign"],
                                  ["traffic", "profiles"], ["validate", "--runs", "5"],
                                  ["perf", "profile"]],
                         ids="-".join)
def test_removed_campaign_commands_exit_two(argv, capsys):
    # The fleet campaign, the traffic profiles and the §VII-A campaign are
    # paper artifacts now (`repro paper fleet_campaign`, `traffic`,
    # `traffic_full`, `validation`); the profiled counters `perf profile`
    # printed are the paper gate's `engine` cells.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert any(f"invalid choice: '{word}'" in err for word in argv[:2])


def test_seed_reaches_the_command_that_reads_it(monkeypatch):
    from repro.experiments import paper

    seeds = []
    artifact = paper.ARTIFACTS["table2"]
    monkeypatch.setitem(paper.ARTIFACTS, "table2", artifact._replace(
        run=lambda paper_run: seeds.append(paper_run.seed) or []))
    assert main(["paper", "table2", "--seed", "5"]) == 0
    assert seeds == [5]


@pytest.mark.parametrize("argv", [["races", "--seed", "5"], ["--seed", "5", "races"],
                                  ["lint", "--seed", "5"],
                                  ["ftcov", "record", "--seed", "5"], ["list-workloads", "--seed", "5"]],
                         ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv))
def test_a_command_that_reads_no_seed_rejects_it(argv):
    # Before the command (the old global option) or after it, alike.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _repro_commands(text):
    """The argv of every ``python -m repro ...`` / ``$(PYTHON) -m repro
    ...`` command in *text*, recipes and comments alike (a comment's
    command ends at a closing backquote)."""
    import re
    import shlex

    return [shlex.split(match) for match in
            re.findall(r"(?:python3?|\$\(PYTHON\)) -m repro\b([^&|;`\n]*)", text)]


def test_every_make_and_ci_command_parses():
    """A deleted subcommand or option cannot linger in a make target or a
    CI step."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    commands = [argv for name in ("Makefile", ".github/workflows/ci.yml")
                for argv in _repro_commands((root / name).read_text())]
    assert {argv[0] for argv in commands} >= {"lint", "audit", "analyze"}
    for argv in commands:
        build_parser().parse_args(argv)
    # `make lint` applies the gate of the analyze step's lint, which only
    # adds the JSON document the findings artifact is read from.
    from repro.analysis.aggregate import STEPS

    (lint,) = [argv for argv in commands if argv[0] == "lint"]
    (step,) = [smoke for analyzer, smoke, _ in STEPS if analyzer == "lint"]
    assert [*lint, "--json"] == list(step)


def _paper_bench(monkeypatch, events, ok=True, *options):
    """``repro paper bench`` over a stub report: no artifact runs."""
    from repro.experiments import paper
    from repro.metrics import benchfile

    report = {
        "schema": benchfile.SCHEMA, "bench": "paper", "seed": 1,
        "smoke": True, "ok": ok, "problems": [] if ok else ["diverged"],
        "metrics": {"engine.net.engine_events": {"value": events, "unit": "count"}},
        "info": {},
    }
    monkeypatch.setattr(paper, "run_paper", lambda **kwargs: {})
    monkeypatch.setattr(paper, "run_paper_bench", lambda *args: report)
    return main(["paper", "bench", "--smoke", *options])


def test_run_bench_exit_codes(tmp_path, capsys, monkeypatch):
    pinned = tmp_path / "BENCH_paper.json"
    assert _paper_bench(monkeypatch, 2505, True, "--out", str(pinned)) == 0
    assert _paper_bench(monkeypatch, 2505, True, "--check", str(pinned)) == 0
    assert "matches" in capsys.readouterr().out
    assert _paper_bench(monkeypatch, 2506, True, "--check", str(pinned)) == 1
    assert _paper_bench(monkeypatch, 2505, False) == 1
    assert "REGRESSION" in capsys.readouterr().err
    # A v1 file and a banded v2 file are both stale: neither is read.
    stale_v1 = tmp_path / "BENCH_v1.json"
    stale_v1.write_text('{"schema": "repro.bench.engine/v1"}', encoding="utf-8")
    stale_v2 = tmp_path / "BENCH_v2.json"
    stale_v2.write_text(json.dumps({
        "schema": "repro.bench/v2", "bench": "paper", "seed": 1,
        "smoke": False, "ok": True, "problems": [], "info": {},
        "metrics": {"engine.net.engine_events": {
            "value": 2505, "unit": "count", "better": "exact"}},
    }), encoding="utf-8")
    for stale in (stale_v1, stale_v2):
        assert _paper_bench(monkeypatch, 2505, True, "--check", str(stale)) == 2
        assert "cannot read" in capsys.readouterr().err
