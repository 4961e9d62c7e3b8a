"""Run the full seven-benchmark evaluation suite once, share the results.

Figure 3 and Tables III, IV and V all derive from the same runs (the paper
executed each benchmark and reported different views of the measurements).
This module performs those runs once per process and caches them, so the
benchmark harness regenerates every artifact without re-simulating.
"""

from __future__ import annotations

from typing import Iterable

from repro.experiments.common import RunResult, run_overhead
from repro.sim.units import sec

__all__ = ["PAPER_BENCHMARKS", "SuiteResults", "run_suite"]

PAPER_BENCHMARKS = (
    "swaptions",
    "streamcluster",
    "redis",
    "ssdb",
    "node",
    "lighttpd",
    "djcms",
)

SuiteResults = dict[tuple[str, str], RunResult]

_cache: dict[tuple, SuiteResults] = {}


def run_suite(
    modes: Iterable[str] = ("stock", "nilicon", "mc"),
    benchmarks: Iterable[str] = PAPER_BENCHMARKS,
    duration_us: int = sec(2),
    seed: int = 1,
) -> SuiteResults:
    """Run (or fetch cached) results for every (benchmark, mode) pair."""
    key = (tuple(modes), tuple(benchmarks), duration_us, seed)
    if key in _cache:
        return _cache[key]
    results: SuiteResults = {}
    for name in benchmarks:
        for mode in modes:
            results[(name, mode)] = run_overhead(name, mode, duration_us, seed)
    _cache[key] = results
    return results
