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
  an AST-based linter with codebase-specific per-file rules (DET001..EXC001
  as errors, RACE001/RACE002/ORD001 as warnings).  ``python -m repro lint
  --baseline lint-baseline.json`` (CI's lint step) runs them together with
  the whole-program rule families of the four inventory analyzers below
  (:mod:`repro.analysis.inventory`), each gated on its selfcheck.
* :mod:`repro.analysis.auditor` — a runtime state auditor invoked at epoch
  boundaries and after restore, raising :class:`InvariantViolation` with a
  state diff when kernel bookkeeping goes inconsistent.
* :mod:`repro.analysis.races` / :mod:`repro.analysis.fuzz` — a dynamic
  happens-before race detector (vector clocks over process wake-ups and
  message edges) plus a tie-break schedule fuzzer proving end-to-end
  schedule independence, one pass with the ordering-bug regression
  probes, run via ``python -m repro races`` and in CI.
* :mod:`repro.analysis.coverage` / :mod:`repro.analysis.ckptdiff` — the
  checkpoint state-coverage analyzer (``python -m repro ckptcov``): a
  field inventory of the simulated kernel, the CKPT100..CKPT104
  dump/restore cross-reference, and a checkpoint->restore->deep-compare
  differential oracle over live catalog workloads.
* :mod:`repro.analysis.perf` — the hot-path performance analyzer
  (``python -m repro perf``): a call-graph pass classifying functions
  per-event/per-page/per-epoch and the PERF001..PERF006 rules linting
  only that hot surface.  The deterministic profiler's work counters
  (:mod:`repro.sim.profiler`) are the paper gate's ``engine`` cells
  (:mod:`repro.experiments.engine`).
* :mod:`repro.analysis.baseline` — the finding baseline ``repro lint``
  gates on: known findings are frozen in the checked-in
  ``lint-baseline.json``, new ones gate CI.

See ``docs/determinism.md`` for the rule catalogue and invariant list,
``docs/races.md`` for the race-detection machinery,
``docs/checkpoint-coverage.md`` for the coverage analyzer, and
``docs/perf.md`` for the performance analyzer.

The package re-exports nothing: callers import the submodule they use, so
the simulator, which loads :mod:`repro.analysis.auditor` only for an
``audit=True`` deployment, never pays for the analyzers it does not run.
"""
