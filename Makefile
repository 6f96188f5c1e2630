# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test stress bench figures full-figures examples clean \
	staticcheck lint typecheck check

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Concurrency stress suite, three times over (races are probabilistic;
# CI does the same — see docs/CONCURRENCY.md).
stress:
	for i in 1 2 3; do \
		PYTHONPATH=src $(PYTHON) -m pytest -x -q \
			tests/test_concurrency_stress.py || exit 1; \
	done

# Domain invariant checker (stdlib-only; always available): every rule,
# one hard gate — the same run CI makes (docs/STATIC_ANALYSIS.md).
staticcheck:
	PYTHONPATH=src $(PYTHON) -m repro.staticcheck src/repro

# ruff/mypy are optional in the dev container; the targets no-op with a
# notice when the tool is missing so `make check` works everywhere.
lint: staticcheck
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi

typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

check: lint typecheck test

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate every figure/claim series into benchmarks/out/ (scaled sizes).
figures: bench
	@ls benchmarks/out/

# Paper-scale campaigns (hours).
full-figures:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	@for f in examples/*.py; do \
		echo "== $$f"; $(PYTHON) $$f > /dev/null && echo OK || exit 1; \
	done

clean:
	rm -rf benchmarks/out .pytest_cache .benchmarks .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
