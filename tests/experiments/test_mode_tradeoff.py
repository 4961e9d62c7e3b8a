"""The HyCoR-vs-NiLiCon tradeoff experiment and its oracle.

The full comparison (10 workloads x 3 modes + recovery + traffic) runs
under ``make hycor``; here the tier-1 suite pins the two claims at
single-cell scale — log-commit release beats checkpoint-commit on a
latency-bound server, and recovery pays for it with a replayed log
tail — plus the pure tradeoff oracle, ``tradeoff_problems``.  The bench
gate's cases live with the one bench schema (tests/metrics).
"""

from pathlib import Path

import pytest

from repro.experiments.hycor import (
    run_overhead_row,
    run_recovery_cell,
    tradeoff_problems,
)
from repro.metrics import benchfile


def test_overhead_row_shows_log_commit_advantage():
    """net-echo is latency-bound: every closed-loop request waits for the
    release barrier, so moving it from the ~30 ms checkpoint commit to
    the ~3 ms log commit must recover a large share of stock throughput."""
    row = run_overhead_row("net-echo")
    assert row["kind"] == "server"
    assert row["hycor_overhead_pct"] < row["nilicon_overhead_pct"]
    assert row["reduction_pct"] > 10.0
    # Replication is never free: hycor still pays epoch stop time.
    assert row["hycor_overhead_pct"] > 0


def test_recovery_cells_split_on_replay():
    """Table II with the HyCoR twist: same restore/ARP path, but hycor
    additionally replays the shipped log tail before promoting."""
    hycor = run_recovery_cell("net", "hycor")
    nilicon = run_recovery_cell("net", "nilicon")
    assert hycor["ok"], hycor["violations"]
    assert nilicon["ok"], nilicon["violations"]
    assert hycor["replay_us"] > 0
    assert nilicon["replay_us"] == 0
    assert hycor["total_us"] >= nilicon["total_us"]
    assert hycor["restore_us"] > 0


def _comparison():
    """A comparison's rows, recovery cells and traffic cell, tradeoff held."""
    rows = [
        {"workload": "net-echo", "kind": "server",
         "nilicon_overhead_pct": 96.0, "hycor_overhead_pct": 66.0,
         "reduction_pct": 30.0},
        # Compute rows may lose a little: no output to release early.
        {"workload": "swaptions", "kind": "compute",
         "nilicon_overhead_pct": 5.0, "hycor_overhead_pct": 8.0,
         "reduction_pct": -3.0},
    ]
    recovery = [
        {"workload": "redis", "mode": "nilicon", "violations": [],
         "replay_us": 0, "total_us": 267_000},
        {"workload": "redis", "mode": "hycor", "violations": [],
         "replay_us": 16_500, "total_us": 284_000},
    ]
    traffic_cell = {"mode": "hycor", "ok": True, "violations": []}
    return rows, recovery, traffic_cell


def _unreplayed(rows, recovery, traffic_cell):
    recovery[1]["replay_us"] = 0


def _nilicon_replayed(rows, recovery, traffic_cell):
    recovery[0]["replay_us"] = 40


def _server_lost_to_nilicon(rows, recovery, traffic_cell):
    rows[0]["hycor_overhead_pct"] = 97.5
    rows[0]["reduction_pct"] = -1.5


def _recovery_cell_violated(rows, recovery, traffic_cell):
    recovery[1]["violations"].append("redis/hycor: acknowledged write lost")


def _broken_traffic(rows, recovery, traffic_cell):
    traffic_cell["ok"] = False
    traffic_cell["violations"].append("failover: 3 client errors")


@pytest.mark.parametrize(
    "breakage, expected",
    [
        (_unreplayed, "redis/hycor: recovery replayed no log tail"),
        (_nilicon_replayed, "redis/nilicon: nonzero replay time 40 us"),
        (_server_lost_to_nilicon, "net-echo: hycor overhead 97.5%"),
        (_recovery_cell_violated, "redis/hycor: acknowledged write lost"),
        (_broken_traffic, "failover: 3 client errors"),
    ],
    ids=["hycor-unreplayed", "nilicon-replayed", "server-reduction-below-1",
         "recovery-violation", "broken-traffic"],
)
def test_tradeoff_problems(breakage, expected):
    assert tradeoff_problems(*_comparison()) == []
    comparison = _comparison()
    breakage(*comparison)
    problems = tradeoff_problems(*comparison)
    assert len(problems) == 1
    assert problems[0].startswith(expected)


def test_hycor_bench_prints_and_gates_one_comparison(monkeypatch, capsys):
    """``repro hycor bench`` runs the comparison once, prints its table,
    then the bench cells derived from that same report."""
    from repro.cli import main
    from repro.experiments import hycor

    rows, recovery, traffic_cell = _comparison()
    for row in rows:
        row["stock"] = 1000
    traffic_cell.update(requests=106, p99_us=607_000)
    runs = []

    def comparison(smoke, seed):
        runs.append((smoke, seed))
        return {
            "seed": seed, "smoke": smoke, "rows": rows,
            "recovery": recovery,
            "recovery_by_cell": {f"{c['workload']}/{c['mode']}": c
                                 for c in recovery},
            "traffic": traffic_cell, "problems": [], "ok": True,
        }

    monkeypatch.setattr(hycor, "run_mode_comparison", comparison)
    assert main(["hycor", "bench", "--smoke"]) == 0
    assert runs == [(True, 1)]
    out = capsys.readouterr().out
    table, bench = out.split("comparison: tradeoff holds")
    assert "net-echo" in table and "redis" in table
    assert "hycor bench (seed 1, smoke) — ok" in bench
    assert "net-echo.reduction_pct" in bench


def test_bench_json_roundtrip(tmp_path):
    report = {
        "schema": benchfile.SCHEMA,
        "bench": "hycor",
        "seed": 1,
        "smoke": True,
        "ok": True,
        "problems": [],
        "metrics": {
            "net-echo.reduction_pct": {
                "value": 30.29, "unit": "pp", "better": "higher",
                "min_band": 2.0,
            },
            "redis/hycor.replay_us": {"value": 16_500, "unit": "us"},
        },
        "info": {"kind": {"net-echo": "server"}},
    }
    path = tmp_path / "BENCH_hycor.json"
    benchfile.write(report, path)
    loaded = benchfile.load(path)
    assert loaded == report
    assert benchfile.check(loaded, report) == []


def test_checked_in_bench_claims_the_tradeoff():
    """The committed BENCH_hycor.json must itself pin the paper's claim:
    a positive overhead reduction on the latency-bound servers and a
    recovery-latency cost carried by the replayed log tail."""
    pinned = benchfile.load(
        Path(__file__).resolve().parents[2] / "BENCH_hycor.json"
    )
    assert pinned["ok"]
    value = {name: m["value"] for name, m in pinned["metrics"].items()}
    servers = [w for w, kind in pinned["info"]["kind"].items()
               if kind == "server"]
    assert any(value[f"{w}.reduction_pct"] > 10 for w in servers)
    assert all(value[f"{w}.reduction_pct"] >= 0 for w in servers)
    hycor_cells = {name.rsplit(".", 1)[0] for name in value
                   if name.rsplit(".", 1)[0].endswith("/hycor")}
    assert hycor_cells
    for cell in hycor_cells:
        twin = cell.replace("/hycor", "/nilicon")
        assert value[f"{cell}.replay_us"] > 0
        assert value[f"{cell}.total_us"] >= value[f"{twin}.total_us"]
        assert value[f"{twin}.replay_us"] == 0
