"""Each workload at a tiny size: no failed op, repeatable digest, and
tracing that leaves the simulated outputs alone."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

from bench.spec import ROOT, SIM_OUTPUTS
from bench.trace import Boundaries, Sampler
from bench.worker import assert_untraced
from bench.workloads import WORKLOADS, sim_digest, tail_percentile


def _run(name: str, seed: int = 3):
    cls = WORKLOADS[name]
    sim = cls(seed, cls.TINY)
    sim.execute()
    return sim, sim.outcome()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_has_no_failed_op_and_a_repeatable_digest(name):
    sim, first = _run(name)
    assert_untraced(sim.world.engine)
    _sim, second = _run(name)
    assert first.violations == [] and first.attempted > 0 and first.failed == 0
    assert sim_digest(first.payload) == sim_digest(second.payload)
    assert first.outputs["sim_tput"] > 0
    assert set(first.outputs) <= set(SIM_OUTPUTS)


def test_failover_recovers_and_traffic_does_not():
    _sim, failover = _run("failover")
    _sim, traffic = _run("traffic")
    assert failover.outputs["sim_recovery_ms"] > 0
    assert "sim_recovery_ms" not in traffic.outputs


def test_tracing_leaves_the_digest_alone():
    _sim, plain = _run("failover")
    boundaries = Boundaries()
    boundaries.install()
    sampler = Sampler()
    try:
        sim = WORKLOADS["failover"](3, WORKLOADS["failover"].TINY)
        with pytest.raises(RuntimeError, match="is patched"):
            assert_untraced(sim.world.engine)
        sampler.start()
        sim.execute()
    finally:
        sampler.stop()
        boundaries.uninstall()
    assert sim_digest(sim.outcome().payload) == sim_digest(plain.payload)
    calls = {stem: calls for stem, (calls, _s) in boundaries.snapshot().items()}
    assert calls["criu.restore"] > 0 and calls["fleet.failstop"] == 1


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(150) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(13_000) == 99.9
    assert tail_percentile(12) == 50.0


def test_bench_without_the_simulator_fails_without_a_result(tmp_path):
    """A checkout holding only BENCHMARK.json and bench/ must exit non-zero
    and print no result line."""
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", "kv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
