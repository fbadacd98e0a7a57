# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test lint coverage regen-golden bench graph-smoke serve-smoke tick-smoke bench-suite-smoke e1 e2 ablations reference examples clean

# Coverage floor for the instrumented packages (ratchet: raise as
# coverage improves, never lower).
COV_FLOOR ?= 85

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Static checks: ruff + mypy when installed (pip install -e .[lint]),
# always followed by the repo's own assertion linter — plan rules plus
# the EA4xx/EA5xx source-level packs (AST def-use over the modules each
# target's own module imports) — on every registered target, the task-graph,
# serving and serial-tick smokes and the repository benchmark's self-test.
# Fails on any new finding.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src/repro/; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro/; \
	else \
		echo "mypy not installed; skipping (pip install -e .[lint])"; \
	fi
	PYTHONPATH=src $(PYTHON) -m repro.analysis --all-targets --source
	@$(MAKE) --no-print-directory coverage
	@$(MAKE) --no-print-directory graph-smoke
	@$(MAKE) --no-print-directory serve-smoke
	@$(MAKE) --no-print-directory tick-smoke
	@$(MAKE) --no-print-directory bench-suite-smoke

# Ratcheted coverage gate over the assertion engines and the
# observability layer; skipped when pytest-cov is not installed
# (pip install -e .[test]).
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		PYTHONPATH=src $(PYTHON) -m pytest -q tests/core tests/obs \
			--cov=repro.core --cov=repro.obs \
			--cov-report=term-missing:skip-covered \
			--cov-fail-under=$(COV_FLOOR); \
	else \
		echo "pytest-cov not installed; skipping coverage gate (pip install -e .[test])"; \
	fi

# Regenerate the committed golden arrestment trace and the per-run
# digests of the golden campaign trace.  Both are regression oracles:
# review the diff like any behavioural change.
regen-golden:
	PYTHONPATH=src $(PYTHON) -m repro.obs.golden tests/data/golden_arrestment.jsonl
	PYTHONPATH=src:. $(PYTHON) -m tests.obs.campaign_golden tests/data/golden_campaign_trace.json

# The repository benchmark (benchmarks/suite, declared by BENCHMARK.json):
# every workload once, end-to-end metrics on the last stdout line of each.
# Pass suite options via e.g. BENCH_ARGS="--seed 3 --trace 1".
bench:
	@for workload in $$($(PYTHON) -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))"); do \
		echo "== bench: $$workload"; \
		$(PYTHON) benchmarks/suite/run.py --workload $$workload $(BENCH_ARGS) || exit 1; \
	done

# Self-test of the repository benchmark (benchmarks/suite): every
# workload at smoke scale, untraced and traced, with its output gates.
bench-suite-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/suite -q

# Fast end-to-end slice through the campaign graph's three stages: cold
# run, warm replay (zero executions), 2-way shard + merge, byte-identical
# aggregate; then the run-key guards (edits to a copy of src/repro re-key
# exactly the targets that import the edited file).  Guards
# dag.run_campaign_graph on every `make lint`.
graph-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/experiments/test_graph_campaign.py::TestGraphSmoke \
		tests/experiments/test_run_keys.py

# Fast check of batch serving's one running kernel per target: the
# continuous-group tests (sessions joining a running kernel on any
# round, churn, gauges), then a short batched CLI run over whole tank
# windows.  Guards repro.serve's batch path on every `make lint`.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/serve/test_continuous_group.py
	PYTHONPATH=src $(PYTHON) -m repro.serve --target tanklevel --sessions 8 \
		--frame-ticks 500 --batch

# Fast check of the serial tick (a few seconds): the per-tick call ledger
# of both targets, the pinned byte-for-byte memory traffic, the plant step
# and the golden arrestment trace.  A hot-path edit that changes what the
# simulated program reads or writes fails here.
tick-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/arrestor/test_tick_call_counts.py \
		tests/targets/test_memory_traffic.py \
		tests/core/test_inframe_check.py \
		tests/plant/test_environment_step.py \
		tests/obs/test_golden_trace.py

e1:
	PYTHONPATH=src $(PYTHON) -m repro.experiments e1 --save results/e1.csv

e2:
	PYTHONPATH=src $(PYTHON) -m repro.experiments e2 --save results/e2.csv

# The ablations beyond the paper's tables (EXPERIMENTS.md), through the
# campaign graph; regenerates the committed results/ablations.{csv,txt}.
ablations:
	PYTHONPATH=src $(PYTHON) -m repro.experiments ablations \
		--save results/ablations.csv > results/ablations.txt

reference:
	PYTHONPATH=src $(PYTHON) -m repro.experiments reference

examples:
	for script in examples/*.py; do echo "== $$script"; PYTHONPATH=src $(PYTHON) $$script || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
