PYTHON ?= python

.PHONY: install test lint audit analyze golden-regen validate fleet traffic examples clean

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

# Every step of repro.analysis.aggregate.STEPS as one gate, with a merged
# findings artifact; CI runs it (it also writes coverage-matrix.json).
# STEPS is the only list of the steps.  For the full-depth passes run
# `PYTHONPATH=src python -m repro analyze --full`.  Its paper step gates
# every simulated number (paper tables, fleet, traffic and the engine's
# work counters) against BENCH_paper.json; after an intentional change,
# regenerate that file with `repro paper bench --out BENCH_paper.json`.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro analyze --json-out analyze-report.json

# Re-pin the golden per-seed trace/metrics digests and the per-seed NDLog
# digests after an intentional behavior change (review the diff!).
golden-regen:
	PYTHONPATH=src $(PYTHON) -c "from repro.analysis.fuzz import write_golden; write_golden('tests/golden/digests.json')"
	PYTHONPATH=src $(PYTHON) -c "from repro.analysis.ndreplay import write_ndlog_golden; write_ndlog_golden('tests/golden/ndlog_digests.json')"

validate:
	$(PYTHON) -m repro validate --runs 5

# Fleet orchestration: the full acceptance campaign (12 members / 6
# hosts, sequential + concurrent host loss, replayed twice for digest
# determinism).  The fault catalogs (pair phase matrix and fleet
# scenarios) run in the `ftcov record` step of `make analyze`, the
# scaling sweeps are the fleet_pair/fleet_pool artifacts of
# `repro paper bench`, and tier-1 runs the reduced campaign.
fleet:
	PYTHONPATH=src $(PYTHON) -m repro fleet campaign

# L7 traffic tier: full-scale open-loop SLO campaign (>=1000 concurrent
# sessions, each profile replayed twice for digest determinism).  The
# smoke-scale SLO cells are the traffic artifact of `repro paper bench`.
traffic:
	PYTHONPATH=src $(PYTHON) -m repro traffic campaign

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/checkpoint_anatomy.py
	$(PYTHON) examples/live_migration.py
	$(PYTHON) examples/nine_lives.py

clean:
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis build dist src/*.egg-info
