"""Tests for the command-line interface."""

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


def test_table_out_of_range(capsys):
    assert main(["table", "9"]) == 2


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


def test_audit_command(capsys):
    assert main(["audit", "net", "--run-ms", "400"]) == 0
    out = capsys.readouterr().out
    assert "invariants held" in out and "epoch(s)" in out


def test_traffic_profiles_lists_all_four(capsys):
    assert main(["traffic", "profiles"]) == 0
    out = capsys.readouterr().out
    for name in ("steady", "bursty", "failover", "migration"):
        assert name in out


def _bench_args(**kwargs):
    import argparse

    return argparse.Namespace(**{"json": False, "out": None, "check": None,
                                 **kwargs})


def _bench_report(events_per_sec, ok=True):
    from repro.metrics import benchfile

    return {
        "schema": benchfile.SCHEMA, "bench": "engine", "seed": 1,
        "smoke": True, "ok": ok, "problems": [] if ok else ["diverged"],
        "metrics": {"net.events_per_sec": {
            "value": events_per_sec, "unit": "events/s", "better": "higher",
        }},
        "info": {},
    }


def test_run_bench_exit_codes(tmp_path, capsys):
    from repro.cli import _run_bench

    pinned = tmp_path / "BENCH_engine.json"
    assert _run_bench(_bench_report(40_000), _bench_args(out=str(pinned))) == 0
    assert _run_bench(_bench_report(35_000), _bench_args(check=str(pinned))) == 0
    assert "within tolerance" in capsys.readouterr().out
    assert _run_bench(_bench_report(10_000), _bench_args(check=str(pinned))) == 1
    assert _run_bench(_bench_report(40_000, ok=False), _bench_args()) == 1
    stale = tmp_path / "BENCH_v1.json"
    stale.write_text('{"schema": "repro.bench.engine/v1"}', encoding="utf-8")
    assert _run_bench(_bench_report(40_000), _bench_args(check=str(stale))) == 2
    assert "REGRESSION" in capsys.readouterr().err


def test_fleet_bench_smoke_gates_against_checked_in_file(capsys):
    from pathlib import Path

    pinned = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"
    assert main(["fleet", "bench", "--smoke", "--check", str(pinned)]) == 0
    assert "within tolerance" in capsys.readouterr().out
