"""§6.4 — scalability of facet computation with dataset size.

Measures, over synthetic KGs of growing size, the cost of the
interaction-critical operations: session startup (closure), class
markers, property facets with counts, a path expansion, and a full
analytic run.  Shape: near-linear growth — asserted in the store
triples each operation reads (``conftest.CountingGraph``), the timed
columns staying in the artifact.  ``REPRO_BENCH_SIZES`` scales the
sweep from 100 laptops up to the 10 M-triple mark (~1_700_000 laptops
at ~6 triples each).
"""

import gc
import os
import time

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.facets import FacetedAnalyticsSession, FacetedSession
from repro.rdf.namespace import EX

from conftest import CountingGraph, format_table

#: Laptop counts to sweep; override with e.g. REPRO_BENCH_SIZES=100.
SIZES = tuple(
    int(size)
    for size in os.environ.get("REPRO_BENCH_SIZES", "100,400,1600").split(",")
)


def interaction(graph, step):
    """The five operations on ``graph``, each run as ``step(label, fn)``."""
    session = step(
        "startup (closure)", lambda: FacetedAnalyticsSession(graph))
    step("class markers", lambda: session.class_markers(expanded=True))
    session.select_class(EX.Laptop)
    step("property facets", session.all_facets)
    step("path expansion (3)",
         lambda: session.facet((EX.manufacturer, EX.origin, EX.locatedAt)))
    session.group_by((EX.manufacturer,))
    session.measure((EX.price,), "AVG")
    step("analytic run", session.run)


def measure(size):
    """``(seconds, triples read)`` per operation, at ``size`` laptops:
    timed on the store, counted on a counting twin of it."""
    graph = synthetic_graph(SyntheticConfig(laptops=size, seed=21))
    timings, triples = {}, {}

    def timed(label, fn):
        # Collect before timing so one step's garbage is not charged
        # to whichever successor happens to trip the collector.
        gc.collect()
        started = time.perf_counter()
        result = fn()
        timings[label] = time.perf_counter() - started
        return result

    stores = [CountingGraph(graph)]

    def counted(label, fn):
        for store in stores:
            store.triples = 0
        result = fn()
        if isinstance(result, FacetedSession):
            stores.append(result.graph)  # the closed copy counts too
        triples[label] = sum(store.triples for store in stores)
        return result

    interaction(graph, timed)
    interaction(stores[0], counted)
    return timings, triples


def run_scalability():
    return {size: measure(size) for size in SIZES}


def test_scalability(benchmark, artifact_writer):
    results = benchmark.pedantic(run_scalability, rounds=1, iterations=1)
    small, large = results[SIZES[0]], results[SIZES[-1]]
    body = [
        (op, *(f"{results[size][0][op] * 1000:.1f} ms" for size in SIZES),
         *(results[size][1][op] for size in SIZES))
        for op in small[0]
    ]
    text = "Scalability of the interaction-critical operations (§6.4)\n"
    text += format_table(
        ["operation"] + [f"{s} laptops" for s in SIZES]
        + [f"triples read ({s})" for s in SIZES], body)
    artifact_writer("scalability_facets.txt", text)

    # Shape: no operation reads more triples per laptop as the laptops
    # grow (at 16x the laptops, 8.3x to 16.0x the triples read).
    for op in small[1]:
        assert large[1][op] * SIZES[0] <= small[1][op] * SIZES[-1], op


def test_facet_computation_speed(benchmark):
    """Micro-benchmark: property facets over a 400-laptop graph.

    Every round lists on a fresh session, so what is measured is the
    id-level computation, not a revisit.
    """
    graph = synthetic_graph(SyntheticConfig(laptops=400, seed=21))
    session = FacetedAnalyticsSession(graph)
    session.select_class(EX.Laptop)
    closed, extension = session.graph, session.extension

    def fresh():
        return (FacetedSession(closed, results=extension, closed=True),), {}

    facets = benchmark.pedantic(
        lambda session: session.all_facets(), setup=fresh, rounds=30)
    assert len(facets) >= 5


def test_facet_cache_hit_speed(benchmark):
    """The same listing served again from the state it was made on."""
    graph = synthetic_graph(SyntheticConfig(laptops=400, seed=21))
    session = FacetedAnalyticsSession(graph)
    session.select_class(EX.Laptop)
    session.all_facets()  # populate
    facets = benchmark(session.all_facets)
    assert len(facets) >= 5
    assert session.cache_stats()["facets"].hits > 0
