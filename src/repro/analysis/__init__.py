"""Static analysis and runtime auditing for the reproduction's correctness.

The entire repository rests on two properties that ordinary tests cannot
enforce by themselves:

* **Determinism** — no wall-clock, OS entropy or interpreter-identity value
  may influence a simulation (see the guarantees documented in
  :mod:`repro.sim.engine`); every experiment must replay exactly from its
  seed, which the fault-injection campaign depends on.
* **Checkpoint completeness** — every piece of mutable kernel state must be
  covered by the checkpoint path, or failover silently diverges.

This package provides the enforcement layers:

* :mod:`repro.analysis.linter` / :mod:`repro.analysis.rules` — ``nlint``,
  an AST-based linter with codebase-specific rules (DET001..CKPT001 as
  errors, RACE001/RACE002/ORD001 as warnings), run via
  ``python -m repro lint src/`` and in CI.
* :mod:`repro.analysis.auditor` — a runtime state auditor invoked at epoch
  boundaries and after restore, raising :class:`InvariantViolation` with a
  state diff when kernel bookkeeping goes inconsistent.
* :mod:`repro.analysis.races` / :mod:`repro.analysis.fuzz` — a dynamic
  happens-before race detector (vector clocks over process wake-ups and
  message edges) plus a tie-break schedule fuzzer proving end-to-end
  schedule independence, run via ``python -m repro races`` and in CI.
* :mod:`repro.analysis.coverage` / :mod:`repro.analysis.ckptdiff` — the
  checkpoint state-coverage analyzer (``python -m repro ckptcov``): a
  field inventory of the simulated kernel, the CKPT100..CKPT104
  dump/restore cross-reference, and a checkpoint->restore->deep-compare
  differential oracle over live catalog workloads.
* :mod:`repro.analysis.perf` / :mod:`repro.analysis.perfbench` — the
  hot-path performance analyzer (``python -m repro perf``): a call-graph
  pass classifying functions per-event/per-page/per-epoch, the
  PERF001..PERF006 rules linting only that hot surface, a deterministic
  profiler (:mod:`repro.sim.profiler`) cross-referencing every finding,
  and the profiled runs whose work counters are the paper gate's
  ``engine`` cells (:mod:`repro.experiments.engine`).
* :mod:`repro.analysis.baseline` — finding baselines shared by ``lint``,
  ``ckptcov`` and ``perf``: known findings are frozen in a checked-in
  file, new ones gate CI.

See ``docs/determinism.md`` for the rule catalogue and invariant list,
``docs/races.md`` for the race-detection machinery,
``docs/checkpoint-coverage.md`` for the coverage analyzer, and
``docs/perf.md`` for the performance analyzer.
"""

from repro.analysis.auditor import InvariantViolation, StateAuditor, Violation
from repro.analysis.baseline import (
    BaselinedReport,
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.analysis.ckptdiff import (
    OracleResult,
    StateDiff,
    compare_containers,
    run_oracle,
)
from repro.analysis.coverage import (
    COVERAGE_RULE_IDS,
    CoverageReport,
    Inventory,
    analyze_coverage,
    build_inventory,
)
from repro.analysis.linter import Finding, LintContext, Rule, all_rules, lint_paths, lint_source
from repro.analysis.perf import (
    PERF_RULE_IDS,
    HotFunction,
    PerfReport,
    analyze_perf,
    build_hot_map,
)
from repro.analysis.perfbench import (
    ProfiledRun,
    crossref,
    run_profiled_deployment,
)
from repro.analysis.races import (
    RaceDetector,
    RaceFinding,
    install_detector,
    verify_access_coverage,
)
from repro.analysis.report import render_json, render_text

__all__ = [
    "BaselinedReport",
    "COVERAGE_RULE_IDS",
    "CoverageReport",
    "Finding",
    "HotFunction",
    "InvariantViolation",
    "Inventory",
    "LintContext",
    "OracleResult",
    "PERF_RULE_IDS",
    "PerfReport",
    "ProfiledRun",
    "RaceDetector",
    "RaceFinding",
    "Rule",
    "StateAuditor",
    "StateDiff",
    "Violation",
    "all_rules",
    "analyze_coverage",
    "analyze_perf",
    "apply_baseline",
    "build_hot_map",
    "build_inventory",
    "compare_containers",
    "crossref",
    "fingerprint",
    "install_detector",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "run_profiled_deployment",
    "render_json",
    "render_text",
    "run_oracle",
    "verify_access_coverage",
    "write_baseline",
]
