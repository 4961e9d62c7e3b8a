PYTHON ?= python

.PHONY: install test lint audit races races-smoke ckptcov ckptcov-smoke perf perf-smoke perf-bench ndflow ndflow-smoke ftcov ftcov-smoke analyze golden-regen bench bench-full validate faultcampaign faultcampaign-smoke fleet fleet-smoke fleet-bench traffic traffic-smoke traffic-bench hycor hycor-smoke hycor-bench report examples clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

# Determinism / checkpoint-safety linter (nlint); non-zero exit on findings.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src/

# Epoch loop with runtime kernel-state invariant auditing enabled.
audit:
	PYTHONPATH=src $(PYTHON) -m repro audit

# Happens-before race detection + full tie-break schedule fuzz
# (8 permutations x 2 workloads x 3 seeds).
races:
	PYTHONPATH=src $(PYTHON) -m repro races --check-access
	PYTHONPATH=src $(PYTHON) -m repro races
	PYTHONPATH=src $(PYTHON) -m repro races --fuzz

# CI subset: coverage check, detector probe and a 3-schedule fuzz on one
# workload/seed, plus both regression knobs (which MUST be flagged).
races-smoke:
	PYTHONPATH=src $(PYTHON) -m repro races --check-access
	PYTHONPATH=src $(PYTHON) -m repro races --smoke
	PYTHONPATH=src $(PYTHON) -m repro races --fuzz --smoke
	PYTHONPATH=src $(PYTHON) -m repro races --smoke --knob ack-before-commit > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro races --smoke --knob release-oldest > /dev/null

# Checkpoint state-coverage: inventory self-check, static CKPT1xx pass
# against the checked-in known-gap baseline, then the full differential
# oracle (checkpoint -> restore -> deep-compare) over every catalog
# workload.
ckptcov:
	PYTHONPATH=src $(PYTHON) -m repro ckptcov --check-inventory
	PYTHONPATH=src $(PYTHON) -m repro ckptcov --baseline ckptcov-baseline.json \
	  --diff --workload swaptions --workload streamcluster --workload redis \
	  --workload ssdb --workload node --workload lighttpd --workload djcms \
	  --workload disk-rw --workload net-echo --workload net

# CI subset: self-check, baselined static pass, one oracle workload per
# checkpoint surface (fs cache via ssdb, network stack via net-echo).
ckptcov-smoke:
	PYTHONPATH=src $(PYTHON) -m repro ckptcov --check-inventory > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro ckptcov --baseline ckptcov-baseline.json \
	  --diff --workload ssdb --workload net-echo

# Hot-path performance analyzer: annotation/root self-check, PERF lint
# against the checked-in known-debt baseline, a deterministic profiled run
# cross-referencing every finding, and the full bench gated against the
# checked-in BENCH_engine.json.  All four BENCH_*.json files share one
# schema (repro.metrics.benchfile) and one `--check` gate: a gated metric
# may move at most 20% the wrong way (an `exact` one not at all), and the
# run must pass its own checks (here: same-seed determinism, fast-path
# speedup).  The engine bench gates work counters, not time; the
# simulator's wall time is measured by `python3 -m bench` (bench/README.md).
perf:
	PYTHONPATH=src $(PYTHON) -m repro perf selfcheck
	PYTHONPATH=src $(PYTHON) -m repro perf lint --baseline perf-baseline.json
	PYTHONPATH=src $(PYTHON) -m repro perf profile
	PYTHONPATH=src $(PYTHON) -m repro perf bench --check BENCH_engine.json

# CI subset: baselined lint (selfcheck is implicit) + one bounded profiled
# workload, and the smoke bench gated on streamcluster's exact work counters.
perf-smoke:
	PYTHONPATH=src $(PYTHON) -m repro perf lint --baseline perf-baseline.json
	PYTHONPATH=src $(PYTHON) -m repro perf profile --smoke
	PYTHONPATH=src $(PYTHON) -m repro perf bench --smoke --check BENCH_engine.json

# Regenerate the checked-in BENCH_engine.json (review the diff!).
perf-bench:
	PYTHONPATH=src $(PYTHON) -m repro perf bench --out BENCH_engine.json

# Nondeterminism-provenance analyzer: inventory self-check, NDF lint
# against the checked-in baseline (only the unsafe_unlogged_draw knob is
# frozen there), the record->replay oracle over the default matrix, and
# the knob probe (the oracle MUST detect the unlogged draw).
ndflow:
	PYTHONPATH=src $(PYTHON) -m repro ndflow selfcheck
	PYTHONPATH=src $(PYTHON) -m repro ndflow lint --baseline ndflow-baseline.json
	PYTHONPATH=src $(PYTHON) -m repro ndflow replay
	PYTHONPATH=src $(PYTHON) -m repro ndflow replay --knob unsafe-unlogged-draw > /dev/null

# CI subset: baselined lint (selfcheck is implicit) + a one-workload
# record->replay matrix and the same knob probe.
ndflow-smoke:
	PYTHONPATH=src $(PYTHON) -m repro ndflow lint --baseline ndflow-baseline.json
	PYTHONPATH=src $(PYTHON) -m repro ndflow replay --smoke
	PYTHONPATH=src $(PYTHON) -m repro ndflow replay --smoke --knob unsafe-unlogged-draw > /dev/null

# Recovery-path coverage analyzer: failure-surface inventory self-check,
# FTC lint against the frozen baseline, the full-catalog coverage
# recorder (every fault point / state edge / handler crossed against the
# static inventory), and the drop-scenario knob polarity probe.
ftcov:
	PYTHONPATH=src $(PYTHON) -m repro ftcov selfcheck
	PYTHONPATH=src $(PYTHON) -m repro ftcov lint --baseline ftcov-baseline.json
	PYTHONPATH=src $(PYTHON) -m repro ftcov record --json-out coverage-matrix.json
	PYTHONPATH=src $(PYTHON) -m repro ftcov record --knob drop-scenario > /dev/null

# Smoke subset: the catalogs are already the minimal sufficient set (every
# registered point has exactly one arming scenario), so smoke only drops
# the knob re-run's report noise.  CI does not run this target: `make
# analyze` runs the same lint, record (writing coverage-matrix.json) and
# knob steps.
ftcov-smoke:
	PYTHONPATH=src $(PYTHON) -m repro ftcov lint --baseline ftcov-baseline.json
	PYTHONPATH=src $(PYTHON) -m repro ftcov record --json-out coverage-matrix.json
	PYTHONPATH=src $(PYTHON) -m repro ftcov record --knob drop-scenario > /dev/null

# All six analyzer passes (nlint, races, ckptcov, perf, ndflow, ftcov) plus
# the hycor bench gate as one gate with a merged findings artifact; this
# is what CI runs (it also writes coverage-matrix.json).
analyze:
	PYTHONPATH=src $(PYTHON) -m repro analyze --json-out analyze-report.json

# Re-pin the golden per-seed trace/metrics digests and the per-seed NDLog
# digests after an intentional behavior change (review the diff!).
golden-regen:
	PYTHONPATH=src $(PYTHON) -c "from repro.analysis.fuzz import write_golden; write_golden('tests/golden/digests.json')"
	PYTHONPATH=src $(PYTHON) -c "from repro.analysis.ndreplay import write_ndlog_golden; write_ndlog_golden('tests/golden/ndlog_digests.json')"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Paper-scale fault-injection campaign (50 runs per workload, slow).
bench-full:
	REPRO_VALIDATION_RUNS=50 $(PYTHON) -m pytest benchmarks/ --benchmark-only

validate:
	$(PYTHON) -m repro validate --runs 5

# Phase-aware fault campaign: every scenario x 2 workloads x 5 seeds (slow).
faultcampaign:
	PYTHONPATH=src $(PYTHON) -m repro faultcampaign

# CI subset: every scenario (and thus every injection point) x net-echo x 3 seeds.
faultcampaign-smoke:
	PYTHONPATH=src $(PYTHON) -m repro faultcampaign --smoke

# Fleet orchestration: every controller-fault scenario, then the full
# acceptance campaign (12 members / 6 hosts, sequential + concurrent host
# loss, replayed twice for digest determinism) and the scaling benches
# gated against the checked-in BENCH_fleet.json.
fleet:
	PYTHONPATH=src $(PYTHON) -m repro fleet scenario
	PYTHONPATH=src $(PYTHON) -m repro fleet campaign
	PYTHONPATH=src $(PYTHON) -m repro fleet bench --check BENCH_fleet.json

# CI subset: all scenarios + the reduced campaign, and the first two cells
# of each bench sweep (run at full-run parameters, so they equal the same
# cells of BENCH_fleet.json) under the same gate.
fleet-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fleet scenario
	PYTHONPATH=src $(PYTHON) -m repro fleet campaign --smoke
	PYTHONPATH=src $(PYTHON) -m repro fleet bench --smoke --check BENCH_fleet.json

# Regenerate the checked-in BENCH_fleet.json (review the diff!).
fleet-bench:
	PYTHONPATH=src $(PYTHON) -m repro fleet bench --out BENCH_fleet.json

# L7 traffic tier: full-scale open-loop SLO campaign (>=1000 concurrent
# sessions, each profile replayed twice for digest determinism), then the
# bench gated against the checked-in BENCH_traffic.json.
traffic:
	PYTHONPATH=src $(PYTHON) -m repro traffic campaign
	PYTHONPATH=src $(PYTHON) -m repro traffic bench --check BENCH_traffic.json

# CI subset: the reduced campaign + the same SLO regression gate (p99 and
# throughput per profile, 20% band).
traffic-smoke:
	PYTHONPATH=src $(PYTHON) -m repro traffic campaign --smoke
	PYTHONPATH=src $(PYTHON) -m repro traffic bench --check BENCH_traffic.json

# Regenerate the checked-in BENCH_traffic.json (review the diff!).
traffic-bench:
	PYTHONPATH=src $(PYTHON) -m repro traffic bench --out BENCH_traffic.json

# Replication-mode comparison: the full 10-workload overhead-vs-recovery
# tradeoff (HyCoR vs NiLiCon), then the bench gated against the
# checked-in BENCH_hycor.json.
hycor:
	PYTHONPATH=src $(PYTHON) -m repro modes compare
	PYTHONPATH=src $(PYTHON) -m repro hycor bench --check BENCH_hycor.json

# Smoke subset: the three-workload comparison + the same gate (smoke
# cells are byte-identical to the matching cells of the full bench).  CI
# runs only the comparison here; the gate runs inside `make analyze`.
hycor-smoke:
	PYTHONPATH=src $(PYTHON) -m repro modes compare --smoke
	PYTHONPATH=src $(PYTHON) -m repro hycor bench --smoke --check BENCH_hycor.json

# Regenerate the checked-in BENCH_hycor.json (review the diff!).
hycor-bench:
	PYTHONPATH=src $(PYTHON) -m repro hycor bench --out BENCH_hycor.json

report:
	$(PYTHON) -m repro report

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/replicated_kv_store.py
	$(PYTHON) examples/checkpoint_anatomy.py
	$(PYTHON) examples/live_migration.py
	$(PYTHON) examples/nine_lives.py

clean:
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .benchmarks build dist src/*.egg-info
