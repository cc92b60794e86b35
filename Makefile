# Convenience targets for the RDF-Analytics reproduction.

.PHONY: install test lint typecheck check bench bench-refresh bench-smoke bench-json bench-gate chaos examples all clean

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

# Artifacts of every bench target land in the untracked
# benchmarks/.scratch/ (the default of REPRO_BENCH_OUT) ...
bench:
	pytest benchmarks/ --benchmark-only

# ... except here: the one target that rewrites the checked-in baselines
# under benchmarks/out/.  Run it on a quiet host and commit the result.
bench-refresh:
	PYTHONPATH=src REPRO_BENCH_OUT=benchmarks/out pytest benchmarks/ --benchmark-only

# Quick CI-friendly sanity pass: the engine micro-benchmarks and the
# facet scalability sweep at the smallest synthetic size, with a tight
# per-benchmark time budget — plus the two overhead benches, whose
# < 5 % wall-clock bars (resilience wrapper, strict mode) only a
# dedicated benchmark run enforces: -m smoke or --benchmark-only, i.e.
# every bench target here, never the plain tier-1 `pytest`.
bench-smoke:
	PYTHONPATH=src REPRO_BENCH_SIZES=100 pytest benchmarks/bench_engine_micro.py \
		benchmarks/bench_scalability_facets.py \
		benchmarks/bench_ablation_sharding.py \
		benchmarks/bench_resilience_overhead.py \
		benchmarks/bench_analysis_overhead.py \
		-m smoke --benchmark-only -q \
		--benchmark-max-time=0.2 --benchmark-min-rounds=1 \
		--benchmark-warmup=off

# Machine-readable smoke run: the engine micro-benchmarks, the facet
# sweep (size × shard-count curves) and the columnar + sharding
# ablations at the smallest size, leaving benchmarks/.scratch/*.json
# artifacts for tools/bench_compare.py.
bench-json:
	PYTHONPATH=src REPRO_BENCH_SIZES=100 pytest benchmarks/bench_engine_micro.py \
		benchmarks/bench_scalability_facets.py \
		benchmarks/bench_ablation_columnar.py \
		benchmarks/bench_ablation_sharding.py \
		-m smoke --benchmark-only -q \
		--benchmark-max-time=0.2 --benchmark-min-rounds=1 \
		--benchmark-warmup=off
	@ls benchmarks/.scratch/*.json

# Regression gate over the whole artifact tree: re-run the machine-
# readable smoke benches into a scratch directory, then diff every
# matching benchmarks/out/*.json baseline against the fresh run with
# tools/bench_compare.py --dir (exit 1 on regression, 2 on unusable
# artifacts).  Smoke timings are noisy, hence the loose threshold.
BENCH_GATE_OUT ?= benchmarks/.gate-out
BENCH_GATE_THRESHOLD ?= 0.5
bench-gate:
	rm -rf $(BENCH_GATE_OUT)
	PYTHONPATH=src REPRO_BENCH_SIZES=100 REPRO_BENCH_OUT=$(BENCH_GATE_OUT) \
		pytest benchmarks/bench_engine_micro.py \
		benchmarks/bench_scalability_facets.py \
		benchmarks/bench_ablation_columnar.py \
		benchmarks/bench_ablation_sharding.py \
		-m smoke --benchmark-only -q \
		--benchmark-max-time=0.2 --benchmark-min-rounds=1 \
		--benchmark-warmup=off
	python tools/bench_compare.py --dir --threshold $(BENCH_GATE_THRESHOLD) \
		benchmarks/out $(BENCH_GATE_OUT)

chaos:
	pytest tests/ -m chaos -q

examples:
	@for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f > /dev/null && echo ok; done

all: test bench

clean:
	rm -rf benchmarks/.scratch benchmarks/.gate-out .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
