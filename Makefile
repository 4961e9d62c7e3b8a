PYTHON ?= python

.PHONY: install test lint audit perf-bench analyze golden-regen validate faultcampaign faultcampaign-smoke fleet fleet-smoke fleet-bench traffic traffic-smoke traffic-bench hycor hycor-bench report examples clean

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

# Regenerate the checked-in BENCH_engine.json (review the diff!).  It
# gates the engine's exact work counters, not time; the simulator's wall
# time is measured by `python3 -m bench` (bench/README.md).
perf-bench:
	PYTHONPATH=src $(PYTHON) -m repro perf bench --out BENCH_engine.json

# All six analyzer passes (nlint, races, ckptcov, perf, ndflow, ftcov) plus
# the hycor tradeoff comparison and bench gate and the paper gate (every
# table/figure's shape clauses against BENCH_paper.json), as one gate with
# a merged findings artifact; CI runs it (it also writes coverage-matrix.json).
# The step list is repro.analysis.aggregate.STEPS and nothing else: each
# lint step runs its analyzer's inventory selfcheck first.  For the
# full-depth passes run `PYTHONPATH=src python -m repro analyze --full`.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro analyze --json-out analyze-report.json

# Re-pin the golden per-seed trace/metrics digests and the per-seed NDLog
# digests after an intentional behavior change (review the diff!).
golden-regen:
	PYTHONPATH=src $(PYTHON) -c "from repro.analysis.fuzz import write_golden; write_golden('tests/golden/digests.json')"
	PYTHONPATH=src $(PYTHON) -c "from repro.analysis.ndreplay import write_ndlog_golden; write_ndlog_golden('tests/golden/ndlog_digests.json')"

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

# CI subset: the SLO regression gate (p99 and throughput per profile, 20%
# band).  The bench runs the reduced campaign once and fails on any of its
# oracle violations, replay nondeterminism included.
traffic-smoke:
	PYTHONPATH=src $(PYTHON) -m repro traffic bench --check BENCH_traffic.json

# Regenerate the checked-in BENCH_traffic.json (review the diff!).
traffic-bench:
	PYTHONPATH=src $(PYTHON) -m repro traffic bench --out BENCH_traffic.json

# Replication-mode comparison: the full 10-workload overhead-vs-recovery
# tradeoff (HyCoR vs NiLiCon), printed and gated against the checked-in
# BENCH_hycor.json in one run.  Its three-workload smoke subset runs
# inside `make analyze`.
hycor:
	PYTHONPATH=src $(PYTHON) -m repro hycor bench --check BENCH_hycor.json

# Regenerate the checked-in BENCH_hycor.json (review the diff!).
hycor-bench:
	PYTHONPATH=src $(PYTHON) -m repro hycor bench --out BENCH_hycor.json

report:
	$(PYTHON) -m repro report

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/checkpoint_anatomy.py
	$(PYTHON) examples/live_migration.py
	$(PYTHON) examples/nine_lives.py

clean:
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis build dist src/*.egg-info
