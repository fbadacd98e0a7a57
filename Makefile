# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test lint coverage regen-golden bench graph-smoke bench-suite-smoke e1 e2 ablations reference examples clean

# Coverage floor for the instrumented packages (ratchet: raise as
# coverage improves, never lower).
COV_FLOOR ?= 85

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Static checks: ruff + mypy when installed (pip install -e .[lint]),
# always followed by the repo's own assertion linter — plan rules plus
# the EA4xx/EA5xx source-level packs (AST def-use over every
# fingerprinted module) — on every registered target, the task-graph
# smoke and the repository benchmark's self-test.  Fails on any new
# finding.
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

# Regenerate the committed golden arrestment trace.  The file is a
# regression oracle: review the diff like any behavioural change.
regen-golden:
	PYTHONPATH=src $(PYTHON) -m repro.obs.golden tests/data/golden_arrestment.jsonl

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

# Fast end-to-end slice through the campaign task graph: cold run, warm
# replay (zero executions), 2-way shard + merge, byte-identical
# aggregate.  Guards the graph runtime on every `make lint`.
graph-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/experiments/test_graph_campaign.py::TestGraphSmoke

e1:
	$(PYTHON) -m repro.experiments e1 --save results/e1.csv

e2:
	$(PYTHON) -m repro.experiments e2 --save results/e2.csv

# The ablations beyond the paper's tables (EXPERIMENTS.md), through the
# campaign graph; regenerates the committed results/ablations.{csv,txt}.
ablations:
	PYTHONPATH=src $(PYTHON) -m repro.experiments ablations \
		--save results/ablations.csv > results/ablations.txt

reference:
	$(PYTHON) -m repro.experiments reference

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
