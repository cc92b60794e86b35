# Convenience targets for the RDF-Analytics reproduction.

.PHONY: install test lint typecheck check bench bench-refresh chaos fuzz examples all clean

install:
	pip install -e . --no-build-isolation || pip install -e .

test:
	PYTHONPATH=src pytest tests/

# Static analysis gates: the stdlib checker in tools/static_check.py,
# with the arguments tests/test_static_gates.py runs it with in tier-1.
lint:
	python tools/static_check.py --lint src/repro tools benchmarks tests examples perf

typecheck:
	python tools/static_check.py --typecheck src/repro

# The default verify path: lint + typecheck + the full test suite.
check: lint typecheck test

# benchmarks/ regenerates the paper's tables and figures as .txt
# artifacts; performance is gated by perf/ alone
# (python3 perf/run.py compare A.json B.json).
# Artifacts of every bench target land in the untracked
# benchmarks/.scratch/ (the default of REPRO_BENCH_OUT) ...
bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only

# ... except here: the one target that rewrites the checked-in baselines
# under benchmarks/out/.  Run it on a quiet host and commit the result.
bench-refresh:
	PYTHONPATH=src REPRO_BENCH_OUT=benchmarks/out pytest benchmarks/ --benchmark-only

chaos:
	PYTHONPATH=src pytest tests/ -m chaos -q

# The reader properties (Turtle, N-Triples and SPARQL raise only their
# typed errors on arbitrary text, replay_session only ValueError on
# arbitrary JSON), the Answer Frame memo's state machine, the SPARQL
# evaluator's bindings (an extension view answers the materialized
# rows), operators (each against a Term-level reference) and grouped
# counts (the POS-row rule answers the pipeline's rows), star
# aggregates (the step-at-a-time rule answers the pipeline's rows, in
# its order, and a view's kept columns answer a sequence of them as
# fresh views do), the store's access shapes under writes (every read
# against a set oracle, every SPO row in its one shape, the write path's
# counts and generation), the term model's value semantics, native
# presses interleaved with writes (each against a fresh session and,
# inside HIFUN's prerequisites, the row engine) and the listing of
# every state a click script reaches (against a fresh session's scan
# and the per-path facets), and a facet's marker columns (against the
# tuple of markers they replace), at 10 000 draws and a random seed;
# tier-1 runs them derandomized and smaller.
fuzz:
	PYTHONPATH=src pytest tests/test_rdf_syntax.py tests/test_answer_memo.py \
		tests/test_sparql_bindings.py tests/test_sparql_differential.py \
		tests/test_property_graph.py tests/test_engine_equivalence.py \
		tests/test_idspace_session.py tests/test_sparql_counts.py \
		tests/test_sparql_star.py tests/test_rdf_terms.py \
		tests/test_facet_markers.py \
		-k "typed_errors or memo_machine or materialized_rows or operators_match or every_shape or follow_every_write or every_listing or count_rule or star_rule or kept_column or term_values or marker_columns" \
		--hypothesis-profile=fuzz -q

examples:
	@for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f > /dev/null && echo ok; done

all: test bench

clean:
	rm -rf benchmarks/.scratch .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
