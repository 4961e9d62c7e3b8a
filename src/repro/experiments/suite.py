"""Run the seven-benchmark evaluation suite once, share the results.

Figure 3 and Tables III, IV and V all derive from the same runs (the paper
executed each benchmark and reported different views of the measurements).
This module performs those runs once per process and caches them, so
``repro paper bench`` (:mod:`repro.experiments.paper`) derives all four
artifacts without re-simulating.  Every run is its own cell, so a suite
over a subset of the benchmarks yields the same rows as the full suite.
"""

from __future__ import annotations

from typing import Iterable

from repro.experiments.common import RunResult, run_overhead
from repro.sim.units import sec

__all__ = ["PAPER_BENCHMARKS", "SuiteResults", "run_suite", "suite_benchmarks"]

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


def suite_benchmarks(results: SuiteResults) -> list[str]:
    """The paper benchmarks *results* covers, in the paper's order."""
    return [name for name in PAPER_BENCHMARKS if (name, "nilicon") in results]
