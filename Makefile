# Convenience targets for the FVC reproduction.

PYTHON ?= python

.PHONY: install test test-fast test-sanitize lint bench bench-core bench-fast bench-quick bench-obs examples experiments sweep clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# The whole suite with runtime invariant checks armed on every
# simulation cell (repro.analysis.sanitize).
test-sanitize:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest tests/

# Two linters: ruff (general Python errors; skipped with a notice when
# not installed, since the toolchain has no third-party deps) and the
# project's simulator-invariant linter (always available — stdlib only).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping (CI runs it)"; \
	fi
	PYTHONPATH=src $(PYTHON) -m repro.analysis src

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Backend speedup trajectory: the fig13 sweep under both backends must
# show >= 5x for numpy with byte-identical payloads; refreshes the
# committed BENCH_core.json (docs/PERFORMANCE.md explains the fields).
bench-core:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_core.py -o BENCH_core.json

bench-fast:
	$(PYTHON) -m pytest benchmarks/bench_core.py --benchmark-only \
		--benchmark-autosave

bench-quick:
	$(PYTHON) -m pytest benchmarks/bench_fig09_access_time.py \
		benchmarks/bench_table4_constancy.py --benchmark-only

# Observability overhead gate: the same cell batch with obs off vs
# fully on must stay within 5%; writes BENCH_obs.json.
bench-obs:
	PYTHONPATH=src $(PYTHON) benchmarks/obs_overhead.py -o BENCH_obs.json

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

experiments:
	$(PYTHON) -m repro run all

# The reference declarative study at reduced scale (docs/SWEEPS.md).
sweep:
	PYTHONPATH=src $(PYTHON) -m repro sweep run l1_size_study --fast

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/results/*.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
