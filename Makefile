# Convenience targets for the repro library.

.PHONY: install test bench bench-snapshot examples experiments clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

# CI's tier-1 command, so a local pass means a CI pass; no editable install required.
test:
	PYTHONPATH=src python -m pytest -x -q -W error::RuntimeWarning

bench:
	@python -c "import pytest_benchmark" 2>/dev/null \
		&& PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only \
		|| echo "pytest-benchmark not installed; skipping bench (pip install pytest-benchmark)"

# Regenerate BENCH_pipeline.json: the traced fig6 cell CI gates with tools/bench_check.py.
bench-snapshot:
	PYTHONPATH=src python benchmarks/bench_pipeline.py

examples:
	@for script in examples/*.py; do \
		echo "=== $$script"; python $$script || exit 1; \
	done

experiments:
	python -m repro.cli all

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
