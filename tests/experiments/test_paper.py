"""The paper gate's clauses over edits of the checked-in BENCH_paper.json (no simulation)."""

from pathlib import Path

import pytest

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
    assert {m["better"] for m in metrics.values()} == {"exact"}
    assert {"fig3.redis.nilicon_overhead_pct", "validation.node.recovery_rate"} <= set(metrics)
    assert len({clause.name for clause in CLAUSES}) == len(CLAUSES)


#: One mutation per artifact: the cell, its new value (a literal or the
#: value of another cell) and the clause it must fire.
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
            "validation": SMOKE_VALIDATION}

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
            "related.colo_answers_3x_faster"} <= {c.name for c in runnable}
    assert {"fig3.nilicon_wins[redis]", "fig3.stop_dominates", "table3.node_longest_stop",
            "table6.redis.stock_ms in (None, 10)", "validation.full_recovery[node]",
            "threads.overhead_grows"} <= {c.name for c in skipped}
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
