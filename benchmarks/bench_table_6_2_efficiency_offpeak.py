"""Table 6.2 — Efficiency at *off-peak* hours.

The same Q1–Q10 workload as Table 6.1 under the ``offpeak`` network
model.  The paper's shape to reproduce: identical engine behaviour, but
clearly lower and more stable end-to-end times than peak hours.
"""

import pytest

from repro.endpoint import NetworkModel

from _efficiency import build_graphs, render, run_efficiency
from conftest import format_table


@pytest.fixture(scope="module")
def graphs():
    return build_graphs()


def test_table_6_2_offpeak(benchmark, graphs, artifact_writer):
    rows = benchmark.pedantic(
        run_efficiency,
        args=(graphs, NetworkModel.offpeak()),
        rounds=1,
        iterations=1,
    )
    artifact_writer(
        "table_6_2_efficiency_offpeak.txt", render(rows, "off-peak", format_table)
    )
    # Off-peak must beat peak per query on the same seeds (shape check),
    # on the seeded, modelled network time: engine time is the same
    # work under either model, and a wall clock would only add noise.
    peak_rows = run_efficiency(graphs, NetworkModel.peak())
    for (qid, _, off), (qid2, _, peak) in zip(rows, peak_rows):
        assert qid == qid2
        off_network = sum(network for _, network, _ in off)
        peak_network = sum(network for _, network, _ in peak)
        assert off_network < peak_network, qid
    # every repetition was an evaluation, none a result-cache hit
    assert all(g.sparql_cache.stats().hits == 0 for g in graphs.values())
