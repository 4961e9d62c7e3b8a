"""The paper gate's clauses over edits of the checked-in BENCH_paper.json (no simulation)."""

from pathlib import Path

import pytest

from repro.experiments.hycor import SMOKE_WORKLOADS
from repro.experiments.paper import (
    CLAUSES, SMOKE_SUITE, SMOKE_VALIDATION, paper_problems, runnable_clauses,
)
from repro.metrics import benchfile

BENCH = Path(__file__).resolve().parents[2] / "BENCH_paper.json"


@pytest.fixture(scope="module")
def metrics():
    return benchfile.load(BENCH)["metrics"]


def _with(metrics, cell, value):
    return {**metrics, cell: {**metrics[cell], "value": value}}


def _fired(problems, clause):
    return any(problem.startswith(f"{clause}:") for problem in problems)


def test_checked_in_report_holds_every_clause(metrics):
    assert benchfile.load(BENCH)["ok"]
    assert paper_problems(metrics, smoke=False) == []
    assert runnable_clauses(metrics)[1] == []
    assert {"fig3.redis.nilicon_overhead_pct", "validation.node.recovery_rate",
            "fleet_pool.12.members_disturbed", "traffic.failover.p99_us",
            "engine.redis.engine_events"} <= set(metrics)
    assert len({clause.name for clause in CLAUSES}) == len(CLAUSES)


#: One mutation per artifact, and one per HyCoR tradeoff claim: the cell,
#: its new value (a literal or the value of another cell) and the clause
#: it must fire.
MUTATIONS = {
    "table1": ("table1.+cache-infrequent-state.overhead_pct", 500.0, "table1.state_cache_cliff"),
    "table2": ("table2.redis.restore_ms", "table2.net.restore_ms", "table2.redis_restores_slower"),
    "fig3": ("fig3.redis.mc_runtime_pct", 0.0, "fig3.runtime_below_mc[redis]"),
    "table3": ("table3.node.nilicon_stop_ms", 20.0, "table3.node_longest_stop"),
    "table4": ("table4.redis.page_share", 0.5, "table4.redis.page_share in (0.8, None)"),
    "table5": ("table5.node.backup_cores", 0.0, "table5.node_backup_over[swaptions]"),
    "table6": ("table6.lighttpd.nilicon_ms", 2000.0, "table6.slow_under_4x[lighttpd]"),
    "validation": ("validation.node.recovery_rate", 0.8, "validation.full_recovery[node]"),
    "scalability": ("threads.32.overhead_pct", "threads.1.overhead_pct", "threads.overhead_grows"),
    "ablations": ("leave_one_out.-state-cache.overhead_pct", "leave_one_out.full.overhead_pct",
                  "leave_one_out.state_cache_worst"),
    "related": ("related.colo.median_latency_ms", "related.nilicon.median_latency_ms",
                "related.colo_answers_3x_faster"),
    "server-reduction-below-1": ("hycor.net-echo.reduction_pct", -1.5,
                                 "hycor.log_commit_never_loses[net-echo]"),
    "hycor-unreplayed": ("hycor_recovery.redis/hycor.replay_us", 0,
                         "hycor_recovery.hycor_replays[redis]"),
    "nilicon-replayed": ("hycor_recovery.redis/nilicon.replay_us", 40,
                         "hycor_recovery.nilicon_replays_nothing[redis]"),
    "recovery-violation": ("hycor_recovery.redis/hycor.violations", 1,
                           "hycor_recovery.oracles_hold[redis/hycor]"),
    "broken-traffic": ("hycor_traffic.failover.violations", 3, "hycor_traffic.oracles_hold"),
    "fleet_pool": ("fleet_pool.6.members_disturbed", "fleet_pool.4.members_disturbed",
                   "fleet_pool.blast_radius_shrinks[4->6]"),
    "fleet_pair": ("fleet_pair.4.mean_stop_us", 1.05 * 8254.2, "fleet_pair.stop_flat[4]"),
    "traffic": ("traffic.migration.violations", 1, "traffic.oracles_hold[migration]"),
    "engine": ("engine.streamcluster/unoptimized.digest_pages_digested",
               "engine.streamcluster.digest_pages_digested", "engine.digest_cache_saves_work"),
}


@pytest.mark.parametrize("artifact", sorted(MUTATIONS))
def test_one_mutation_per_artifact_fires_its_clause(metrics, artifact):
    cell, value, clause = MUTATIONS[artifact]
    if isinstance(value, str):
        value = metrics[value]["value"]
    problems = paper_problems(_with(metrics, cell, value), smoke=False)
    assert _fired(problems, clause), problems


def test_smoke_subset_skips_exactly_the_clauses_it_cannot_read(metrics):
    rows = {"table1": None, "table2": None, "related": None, "fig3": SMOKE_SUITE,
            "table3": SMOKE_SUITE, "table4": SMOKE_SUITE, "table5": SMOKE_SUITE,
            "validation": SMOKE_VALIDATION, "hycor": SMOKE_WORKLOADS,
            "hycor_recovery": None, "hycor_traffic": None,
            "fleet_pair": ("1", "2"), "fleet_pool": ("4", "6"), "traffic": None,
            "engine": ("streamcluster", "streamcluster/unoptimized")}

    def kept(name):
        artifact, row, _ = name.split(".")
        return artifact in rows and (rows[artifact] is None or row in rows[artifact])

    smoke = {name: metric for name, metric in metrics.items() if kept(name)}
    runnable, skipped = runnable_clauses(smoke)
    assert {c.name for c in skipped} == {
        c.name for c in CLAUSES if any(cell not in smoke for cell in c.reads)
    }
    assert {"table1.monotone", "table2.arp_constant", "fig3.mc_wins[swaptions]",
            "fig3.nilicon_wins[ssdb]", "validation.full_recovery[net-echo]",
            "related.colo_answers_3x_faster", "hycor.log_commit_never_loses[redis]",
            "hycor_recovery.replay_costs_recovery[net]",
            "hycor_traffic.oracles_hold", "fleet_pair.stop_flat[2]",
            "fleet_pool.blast_radius_shrinks[4->6]", "fleet_pool.all_protected[6]",
            "traffic.oracles_hold[failover]", "engine.digest_cache_saves_work"} <= {
        c.name for c in runnable}
    assert {"fig3.nilicon_wins[redis]", "fig3.stop_dominates", "table3.node_longest_stop",
            "table6.redis.stock_ms in (None, 10)", "validation.full_recovery[node]",
            "threads.overhead_grows", "hycor.log_commit_wins_over_10",
            "fleet_pair.latency_grows", "fleet_pool.blast_radius_shrinks[6->8]"} <= {
        c.name for c in skipped}
    assert paper_problems(smoke, smoke=True) == []
    as_full = paper_problems(smoke, smoke=False)
    assert len(as_full) == len(skipped) and all("cannot run" in p for p in as_full)
    edited = _with(smoke, "fig3.ssdb.mc_runtime_pct", 0.0)
    assert _fired(paper_problems(edited, smoke=True), "fig3.runtime_below_mc[ssdb]")


def test_full_report_missing_a_cell_is_a_problem(metrics):
    partial = {k: v for k, v in metrics.items() if k != "fig3.redis.mc_overhead_pct"}
    problems = paper_problems(partial, smoke=False)
    assert _fired(problems, "fig3.redis.mc_overhead_pct in (5, 95)")
    assert _fired(problems, "fig3.nilicon_wins[redis]")
    assert all("cannot run" in problem for problem in problems)
    assert paper_problems(partial, smoke=True) == []
