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


def test_validate_single_workload(capsys):
    assert main(["validate", "--runs", "1", "--workload", "net-echo"]) == 0
    out = capsys.readouterr().out
    assert "net-echo" in out and "100%" in out


def test_lint_clean_tree_exits_zero(capsys):
    assert main(["lint", "src"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_lint_findings_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "kernel" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("import time\ndef f():\n    return time.time()\n")
    assert main(["lint", str(tmp_path)]) == 1
    assert "DET001" in capsys.readouterr().out


def test_lint_unknown_rule_exits_two(capsys):
    assert main(["lint", "--select", "NOPE999", "src"]) == 2


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


@pytest.mark.parametrize("argv", [
    ["ckptcov", "--select", "PERF001"],
    ["perf", "lint", "--select", "NDF001"],
    ["ndflow", "lint", "--select", "PERF001"],
    ["ftcov", "lint", "--select", "PERF001"],
], ids=["ckptcov", "perf", "ndflow", "ftcov"])
def test_analyzer_rejects_rule_ids_of_another_family(argv, capsys):
    # Another analyzer's rule would otherwise silently lint nothing.
    assert main(argv) == 2
    assert "unknown rule id(s)" in capsys.readouterr().err


@pytest.mark.parametrize("module, analyze, argv", [
    ("repro.analysis.coverage", "analyze_coverage", ["ckptcov", "lint"]),
    ("repro.analysis.perf", "analyze_perf", ["perf", "lint"]),
    ("repro.analysis.ndflow", "analyze_ndflow", ["ndflow", "lint"]),
    ("repro.analysis.ftcov", "analyze_ftcov", ["ftcov", "lint"]),
], ids=["ckptcov", "perf", "ndflow", "ftcov"])
def test_every_lint_gates_on_its_selfcheck(module, analyze, argv,
                                           monkeypatch, capsys):
    # `repro analyze` runs no standalone selfcheck step: the lint must
    # refuse to run on the problems its own report carries.
    mod = importlib.import_module(module)
    real = getattr(mod, analyze)

    def unsound(**kwargs):
        report = real(**kwargs)
        report.problems = ["boom"]
        return report

    monkeypatch.setattr(mod, analyze, unsound)
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert f"run `repro {argv[0]} selfcheck`" in out and "boom" in out
    assert "nlint" not in out  # no findings were printed


def test_ckptcov_diff_runs_the_oracle_against_the_static_pass(capsys):
    assert main(["ckptcov", "diff", "--workload", "net-echo"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("oracle net-echo: clean (")


def test_audit_command(capsys):
    assert main(["audit", "net", "--run-ms", "400"]) == 0
    out = capsys.readouterr().out
    assert "invariants held" in out and "epoch(s)" in out


def test_traffic_profiles_lists_all_four(capsys):
    assert main(["traffic", "profiles"]) == 0
    out = capsys.readouterr().out
    for name in ("steady", "bursty", "failover", "migration"):
        assert name in out


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
