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
from bench_ablation_indexes import CountingGraph
from conftest import format_table


def rows_read(graph, text):
    """The rows one evaluation of ``text`` reads off a counting copy of
    ``graph``, past any result cache."""
    store = CountingGraph(graph)
    evaluate(parse_query(text), store)
    return store.rows


@pytest.fixture(scope="module")
def graphs():
    return build_graphs()


def test_table_6_1_peak(benchmark, graphs, artifact_writer):
    rows = benchmark.pedantic(
        run_efficiency, args=(graphs, NetworkModel.peak()), rounds=1, iterations=1
    )
    artifact_writer("table_6_1_efficiency_peak.txt", render(rows, "peak", format_table))
    # Shape assertions, on the engine's work rather than its clock: a
    # grouped query reads more rows as the dataset grows, and the
    # complex tail more than the trivial head on the largest dataset.
    texts, smallest, largest = query_texts(), graphs[100], graphs[1600]
    assert rows_read(largest, texts["Q4"]) > rows_read(smallest, texts["Q4"])
    assert rows_read(largest, texts["Q8"]) > rows_read(largest, texts["Q1"])
