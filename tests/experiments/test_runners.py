"""Smoke tests for the experiment runners (fast configurations)."""

import pytest

from repro.baselines.mc import MC_PARAMS
from repro.experiments.common import (
    RunResult,
    build_deployment,
    overhead,
    run_compute_benchmark,
    run_server_benchmark,
)
from repro.net import World
from repro.replication.modes import mode_names
from repro.sim import ms
from repro.workloads.catalog import PAPER_BENCHMARKS, make_workload


def test_overhead_helpers():
    # A server cell's overhead is its throughput loss, a compute cell's its
    # completion-time increase: which field is set picks the formula.
    stock = RunResult(workload="w", mode="stock", throughput=100.0)
    repl = RunResult(workload="w", mode="nilicon", throughput=75.0)
    assert overhead(stock, repl) == pytest.approx(0.25)
    stock = RunResult(workload="w", mode="stock", completion_us=1000)
    repl = RunResult(workload="w", mode="nilicon", completion_us=1300)
    assert overhead(stock, repl) == pytest.approx(0.30)


def test_build_deployment_rejects_unknown_mode():
    world = World(seed=1)
    spec = make_workload("net").spec()
    with pytest.raises(ValueError, match="unknown mode"):
        build_deployment(world, spec, "remus")


def test_modes_constant_covers_all_builders():
    # Every registered mode deploys through the registry and reports its
    # backup load through the same RunMetrics view.
    for mode in mode_names():
        w = World(seed=1)
        deployment = build_deployment(w, make_workload("net").spec(), mode)
        assert deployment.container is not None
        assert deployment.metrics.backup_core_utilization() >= 0


def test_run_server_benchmark_smoke():
    result = run_server_benchmark("net", "nilicon", duration_us=ms(600))
    assert result.throughput > 0
    assert result.stats.ok
    assert result.metrics.n_epochs > 5
    assert 0 < result.stopped_fraction < 1
    assert result.extra["active_cores"] >= 0


@pytest.mark.parametrize("mode", ["mc", "colo"])
def test_link_rate_counts_every_mode_pair_traffic(mode):
    # MC ships epoch state and COLO forwards inputs over the pair link, so
    # the window's link rate is nonzero for them too.
    result = run_server_benchmark("net", mode, duration_us=ms(300))
    assert result.extra["link_mb_per_s"] > 0


def test_run_compute_benchmark_smoke():
    result = run_compute_benchmark(
        "streamcluster", "nilicon", workload_kwargs={"total_units": 800}
    )
    assert result.completion_us > 0
    assert result.metrics.n_epochs >= 1


def test_compute_timeout_raises():
    with pytest.raises(RuntimeError, match="did not finish"):
        run_compute_benchmark(
            "streamcluster",
            "stock",
            workload_kwargs={"total_units": 100_000},
            timeout_us=ms(50),
        )


def test_mc_params_cover_all_paper_benchmarks():
    assert set(MC_PARAMS) == set(PAPER_BENCHMARKS)
    for params in MC_PARAMS.values():
        assert params["cpu_tax"] >= 0
        assert params["guest_kernel_dirty_per_epoch"] >= 0
