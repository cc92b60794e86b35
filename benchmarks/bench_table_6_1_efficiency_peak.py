"""Table 6.1 — Efficiency at *peak* hours.

Reproduces the shape of the dissertation's peak-hour measurements: the
Q1–Q10 workload against the latency-simulated remote endpoint under the
``peak`` network model (higher base latency, heavy jitter, server load).
Expected shape: every query is slower than off-peak (Table 6.2), and
times grow with query complexity and dataset size.
"""

import pytest

from repro.endpoint import NetworkModel
from repro.sparql import parse_query
from repro.sparql.evaluator import evaluate

from _efficiency import build_graphs, query_texts, render, run_efficiency
from conftest import CountingGraph, format_table


def triples_read(graph, text):
    """The triples one evaluation of ``text`` reads off a counting copy
    of ``graph``, past any result cache."""
    store = CountingGraph(graph)
    *_, triples = store.reads(lambda: evaluate(parse_query(text), store))
    return triples


@pytest.fixture(scope="module")
def graphs():
    return build_graphs()


def test_table_6_1_peak(benchmark, graphs, artifact_writer):
    rows = benchmark.pedantic(
        run_efficiency, args=(graphs, NetworkModel.peak()), rounds=1, iterations=1
    )
    artifact_writer("table_6_1_efficiency_peak.txt", render(rows, "peak", format_table))
    # every repetition was an evaluation, none a result-cache hit
    assert all(g.sparql_cache.stats().hits == 0 for g in graphs.values())
    # Shape assertions, on the engine's work rather than its clock: a
    # grouped query reads more rows as the dataset grows, and the
    # complex tail more than the trivial head on the largest dataset
    # (Q4 400 → 6 400 triples from 100 to 1 600 laptops; Q1 3 200 and
    # Q8 8 000 at 1 600).
    texts, smallest, largest = query_texts(), graphs[100], graphs[1600]
    assert (triples_read(largest, texts["Q4"])
            > triples_read(smallest, texts["Q4"]))
    assert (triples_read(largest, texts["Q8"])
            > triples_read(largest, texts["Q1"]))
