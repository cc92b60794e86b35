"""Ablation — dictionary-encoded vs. term-keyed triple store.

DESIGN.md design choice 5: every term entering the store is interned to
a dense int id and the SPO/POS/OSP indexes, the evaluator's join probes
and the facet engine's set algebra all compare ints.  The ablation flag
``Graph(encoded=False)`` swaps the :class:`TermDictionary` for the
identity :class:`PassthroughDictionary`, reproducing the term-keyed
layout on the *same* code path, and measures the interaction-critical
workload both ways — asserting identical answers first.
"""

import pytest

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.facets import FacetedAnalyticsSession
from repro.facets.model import PropertyRef, path_joins, restrict
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.sparql import query as sparql

from conftest import format_table, min_alternating

pytestmark = pytest.mark.smoke

SIZE = 800
REPETITIONS = 5

JOIN_QUERY = """
SELECT ?l ?c WHERE {
  ?l a ex:Laptop .
  ?l ex:manufacturer ?m .
  ?m ex:origin ?c .
}
"""


def build_graphs():
    encoded = synthetic_graph(SyntheticConfig(laptops=SIZE, seed=13))
    passthrough = Graph(encoded, encoded=False)
    assert len(encoded) == len(passthrough)
    return encoded, passthrough


def facet_workload(graph):
    """Fresh session, one full left-frame computation + a path facet."""
    session = FacetedAnalyticsSession(graph)
    session.select_class(EX.Laptop)
    facets = session.property_facets()
    path = session.facet((EX.manufacturer, EX.origin, EX.locatedAt))
    return [(f.label, f.count, tuple(f.values)) for f in facets] + [
        (path.label, path.count, tuple(path.values))
    ]


def model_workload(graph):
    """Bare §5.3.1 operations (no session, no caches)."""
    laptops = set(graph.subjects(EX.term("manufacturer"), None))
    markers = path_joins(
        graph, laptops,
        (PropertyRef(EX.manufacturer), PropertyRef(EX.origin)))
    cheap = restrict(graph, laptops, PropertyRef(EX.USBPorts),
                     {Literal.of(n) for n in range(2, 5)})
    return sorted(m.sort_key() for m in markers[-1]), len(cheap)


def bgp_workload(graph):
    result = sparql(graph, JOIN_QUERY, use_cache=False)
    return {(row["l"], row["c"]) for row in result}


WORKLOADS = [
    ("facet counts (left frame)", facet_workload),
    ("model ops (joins/restrict)", model_workload),
    ("BGP join (uncached)", bgp_workload),
]


def run_ablation():
    encoded, passthrough = build_graphs()
    rows = []
    for label, fn in WORKLOADS:
        # Identical answers first — the ablation twin is semantics-free.
        assert fn(encoded) == fn(passthrough), label
        fast, slow = min_alternating(
            [lambda: fn(encoded), lambda: fn(passthrough)], REPETITIONS)
        rows.append((label, fast, slow))
    return rows


def test_dictionary_ablation(benchmark, artifact_writer):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    body = [
        (label, f"{fast * 1000:.1f} ms", f"{slow * 1000:.1f} ms",
         f"{slow / fast:.1f}x")
        for label, fast, slow in rows
    ]
    text = (
        "Ablation: dictionary-encoded ids vs. term-keyed indexes "
        f"(design choice 5; {SIZE} laptops, min of {REPETITIONS} "
        "alternating repetitions)\n"
        "Graph(encoded=False) selects the PassthroughDictionary — the\n"
        "same code path with the terms themselves as 'ids'.\n\n"
    )
    text += format_table(
        ["operation", "encoded", "passthrough", "slowdown"], body)
    artifact_writer("ablation_dictionary.txt", text)

    # The int-id layout must not lose to the term-keyed one anywhere.
    for label, fast, slow in rows:
        assert fast <= slow * 1.25, f"{label}: encoding made it slower"
