"""The paper gate's clauses over edits of the checked-in BENCH_paper.json (no simulation)."""

from pathlib import Path

import pytest

from repro.experiments.hycor import SMOKE_WORKLOADS
from repro.experiments.paper import (
    CLAUSES, SMOKE_SUITE, SMOKE_VALIDATION, paper_metrics, paper_problems, runnable_clauses,
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
            "fleet_campaign.12x6.failovers", "traffic_full.steady.peak_sessions",
            "engine.redis.engine_events"} <= set(metrics)
    assert len({clause.name for clause in CLAUSES}) == len(CLAUSES)


def test_paper_metrics_keeps_digests_and_drops_other_strings():
    results = {
        "fleet_campaign": [{"fleet": "12x6", "phases": "600 ms node0", "failovers": 6,
                            "digest": "fleet-trace", "replay_digest": "fleet-trace",
                            "violations": []}],
        "hycor": [{"workload": "redis", "kind": "server", "reduction_pct": 3.5}],
        "engine": [{"workload": "net", "counter_digest": "net-counters", "engine_events": 2505}],
    }
    assert paper_metrics(results) == {
        "fleet_campaign.12x6.failovers": {"value": 6, "unit": "count"},
        "fleet_campaign.12x6.digest": {"value": "fleet-trace", "unit": "digest"},
        "fleet_campaign.12x6.replay_digest": {"value": "fleet-trace", "unit": "digest"},
        "fleet_campaign.12x6.violations": {"value": 0, "unit": "violations"},
        "hycor.redis.reduction_pct": {"value": 3.5, "unit": "pp"},
        "engine.net.counter_digest": {"value": "net-counters", "unit": "digest"},
        "engine.net.engine_events": {"value": 2505, "unit": "count"},
    }


#: One mutation per artifact with a shape clause (``engine`` and
#: ``determinism`` have exact cells only), and one per HyCoR tradeoff claim
#: and per fleet-campaign or full-scale traffic clause: the cell, its new
#: value (a literal or the value of another cell) and the clause it must fire.
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
    "fleet_campaign": ("fleet_campaign.12x6.violations", 1, "fleet_campaign.oracles_hold"),
    "sequential-loss-only": ("fleet_campaign.12x6.failovers", 1,
                             "fleet_campaign.recovers_concurrently"),
    "failover-left-unprotected": ("fleet_campaign.12x6.reprotects", 5,
                                  "fleet_campaign.reprotects_every_failover"),
    "traffic": ("traffic.migration.violations", 1, "traffic.oracles_hold[migration]"),
    "traffic_full": ("traffic_full.failover.violations", 2,
                     "traffic_full.oracles_hold[failover]"),
    "under-1000-sessions": ("traffic_full.steady.peak_sessions", 999,
                            "traffic_full.sustains_1000_sessions"),
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
            "fleet_campaign": None, "fleet_pair": ("1", "2"), "fleet_pool": ("4", "6"),
            "traffic": None,
            "engine": ("streamcluster",), "determinism": None}

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
            "traffic.oracles_hold[failover]", "fleet_campaign.oracles_hold",
            "fleet_campaign.recovers_concurrently"} <= {
        c.name for c in runnable}
    assert {"fig3.nilicon_wins[redis]", "fig3.stop_dominates", "table3.node_longest_stop",
            "table6.redis.stock_ms in (None, 10)", "validation.full_recovery[node]",
            "threads.overhead_grows", "hycor.log_commit_wins_over_10",
            "fleet_pair.latency_grows", "fleet_pool.blast_radius_shrinks[6->8]",
            "traffic_full.oracles_hold[steady]", "traffic_full.sustains_1000_sessions"} <= {
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
