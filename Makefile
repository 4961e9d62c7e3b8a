PYTHON ?= python

.PHONY: install test lint audit analyze examples clean

install:
	$(PYTHON) -m pip install -e .

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# The one static lint (nlint plus the ckptcov, perf, ndflow and ftcov rule
# families) under the same baseline gate as the lint step of `make analyze`.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint --baseline lint-baseline.json

# Epoch loop with runtime kernel-state invariant auditing enabled.
audit:
	PYTHONPATH=src $(PYTHON) -m repro audit

# Every step of repro.analysis.aggregate.STEPS as one gate, with a merged
# findings artifact; CI runs it (it also writes coverage-matrix.json).
# STEPS is the only list of the steps.  For the full-depth passes run
# `PYTHONPATH=src python -m repro analyze --full`.  Its paper step gates
# every simulated number and digest (paper tables, the fleet campaign and
# sweeps, the traffic profiles, the engine's work counters and the
# determinism grid's trace, metrics and NDLog digests) against
# BENCH_paper.json; the full run adds the full-scale traffic profiles.
# After an intentional change, regenerate that file (the only place a
# simulated output is pinned) with `repro paper bench --out BENCH_paper.json`.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro analyze --json-out analyze-report.json

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/checkpoint_anatomy.py
	PYTHONPATH=src $(PYTHON) examples/live_migration.py
	PYTHONPATH=src $(PYTHON) examples/nine_lives.py

clean:
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis build dist src/*.egg-info
