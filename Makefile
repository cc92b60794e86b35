# Convenience targets for the RDF-Analytics reproduction.

.PHONY: install test lint typecheck check bench bench-refresh chaos examples all clean

install:
	pip install -e . --no-build-isolation || pip install -e .

test:
	pytest tests/

# Static analysis gates: the stdlib checker in tools/static_check.py,
# with the arguments tests/test_static_gates.py runs it with in tier-1.
lint:
	python tools/static_check.py --lint src/repro tools benchmarks tests examples

typecheck:
	python tools/static_check.py --typecheck src/repro/rdf src/repro/hifun src/repro/analysis src/repro/olap src/repro/facets

# The default verify path: lint + typecheck + the full test suite.
check: lint typecheck test

# benchmarks/ regenerates the paper's tables and figures as .txt
# artifacts; performance is gated by perf/ alone
# (python3 perf/run.py compare A.json B.json).
# Artifacts of every bench target land in the untracked
# benchmarks/.scratch/ (the default of REPRO_BENCH_OUT) ...
bench:
	pytest benchmarks/ --benchmark-only

# ... except here: the one target that rewrites the checked-in baselines
# under benchmarks/out/.  Run it on a quiet host and commit the result.
bench-refresh:
	PYTHONPATH=src REPRO_BENCH_OUT=benchmarks/out pytest benchmarks/ --benchmark-only

chaos:
	pytest tests/ -m chaos -q

examples:
	@for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f > /dev/null && echo ok; done

all: test bench

clean:
	rm -rf benchmarks/.scratch .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
