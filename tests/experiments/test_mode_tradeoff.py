"""The HyCoR-vs-NiLiCon tradeoff experiment at single-cell scale.

The full comparison (10 workloads x 3 modes + recovery + traffic) is the
``hycor``, ``hycor_recovery`` and ``hycor_traffic`` artifacts of the paper
gate, whose clauses hold the tradeoff (tests/experiments/test_paper.py
edits the checked-in cells to fire each one); here the tier-1 suite pins
the two claims on live cells — log-commit release beats checkpoint-commit
on a latency-bound server, and recovery pays for it with a replayed log
tail.  The bench gate's cases live with the one bench schema
(tests/metrics).
"""

from pathlib import Path

from repro.experiments.hycor import run_overhead_row, run_recovery_cell
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
    # Detection is timed from the injected crash to the detector firing.
    assert hycor["detection_us"] > 0 and nilicon["detection_us"] > 0


def test_bench_json_roundtrip(tmp_path):
    report = {
        "schema": benchfile.SCHEMA,
        "bench": "paper",
        "seed": 1,
        "smoke": True,
        "ok": True,
        "problems": [],
        "metrics": {
            "hycor.net-echo.reduction_pct": {
                "value": 30.29, "unit": "pp",
            },
            "hycor_recovery.redis/hycor.replay_us": {
                "value": 16_500, "unit": "us",
            },
        },
        "info": {"clauses_run": 2},
    }
    path = tmp_path / "BENCH_paper.json"
    benchfile.write(report, path)
    loaded = benchfile.load(path)
    assert loaded == report
    assert benchfile.check(loaded, report) == []


def test_checked_in_bench_claims_the_tradeoff():
    """The committed BENCH_paper.json must itself pin the paper's claim:
    a positive overhead reduction on the latency-bound servers and a
    recovery-latency cost carried by the replayed log tail.  Server rows
    are the ones measured by stock throughput (compute rows by stock
    completion time)."""
    pinned = benchfile.load(
        Path(__file__).resolve().parents[2] / "BENCH_paper.json"
    )
    assert pinned["ok"]
    value = {name: m["value"] for name, m in pinned["metrics"].items()}
    servers = [name[len("hycor."):-len(".stock_throughput")]
               for name in value
               if name.startswith("hycor.")
               and name.endswith(".stock_throughput")]
    assert servers
    assert any(value[f"hycor.{w}.reduction_pct"] > 10 for w in servers)
    assert all(value[f"hycor.{w}.reduction_pct"] >= 0 for w in servers)
    hycor_cells = {name.rsplit(".", 1)[0] for name in value
                   if name.startswith("hycor_recovery.")
                   and name.rsplit(".", 1)[0].endswith("/hycor")}
    assert hycor_cells
    for cell in hycor_cells:
        twin = cell.replace("/hycor", "/nilicon")
        assert value[f"{cell}.replay_us"] > 0
        assert value[f"{cell}.total_us"] >= value[f"{twin}.total_us"]
        assert value[f"{twin}.replay_us"] == 0
        assert value[f"{cell}.detection_us"] > 0
        assert value[f"{twin}.detection_us"] > 0
