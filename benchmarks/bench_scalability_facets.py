"""§6.4 — scalability of facet computation with dataset size.

Measures, over synthetic KGs of growing size, the cost of the
interaction-critical operations: session startup (closure), class
markers, property facets with counts, a path expansion, and a full
analytic run.  Shape: near-linear growth.

``test_scalability_shard_curve`` adds the shard axis: the same sweep
crossed with shard counts (1, 4, 8 by default), written as
``scalability_shards.txt``.  ``REPRO_BENCH_SIZES`` scales the sweep
from 100 laptops up to the 10 M-triple mark (~1_700_000 laptops at ~6
triples each).
"""

import gc
import os
import statistics
import time

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.facets import FacetedAnalyticsSession, FacetedSession
from repro.rdf.namespace import EX
from repro.rdf.sharding import ShardedGraph

from conftest import cold_listings, format_table

#: Laptop counts to sweep; override with e.g. REPRO_BENCH_SIZES=100.
SIZES = tuple(
    int(size)
    for size in os.environ.get("REPRO_BENCH_SIZES", "100,400,1600").split(",")
)

#: Shard counts crossed with the size sweep in the shard-curve test.
SHARD_COUNTS = tuple(
    int(n)
    for n in os.environ.get("REPRO_BENCH_SHARDS", "1,4,8").split(",")
)


def measure(size):
    graph = synthetic_graph(SyntheticConfig(laptops=size, seed=21))
    timings = {}

    def timed(label, fn):
        # Collect before timing so one step's garbage is not charged
        # to whichever successor happens to trip the collector.
        gc.collect()
        started = time.perf_counter()
        result = fn()
        timings[label] = time.perf_counter() - started
        return result

    session = timed(
        "startup (closure)", lambda: FacetedAnalyticsSession(graph))
    timed("class markers", lambda: session.class_markers(expanded=True))
    session.select_class(EX.Laptop)
    timed("property facets", session.property_facets)
    timed("path expansion (3)",
          lambda: session.facet((EX.manufacturer, EX.origin, EX.locatedAt)))
    session.group_by((EX.manufacturer,))
    session.measure((EX.price,), "AVG")
    timed("analytic run", session.run)
    return timings


def run_scalability():
    return {size: measure(size) for size in SIZES}


def test_scalability(benchmark, artifact_writer):
    results = benchmark.pedantic(run_scalability, rounds=1, iterations=1)
    operations = list(results[SIZES[0]].keys())
    body = [
        (op, *(f"{results[size][op] * 1000:.1f} ms" for size in SIZES))
        for op in operations
    ]
    text = "Scalability of the interaction-critical operations (§6.4)\n"
    text += format_table(["operation"] + [f"{s} laptops" for s in SIZES], body)
    artifact_writer("scalability_facets.txt", text)

    # Shape: no catastrophic blow-up — 16× data within ~64× time.
    for op in operations:
        small, large = results[SIZES[0]][op], results[SIZES[-1]][op]
        assert large < max(small, 1e-4) * 300


def measure_shard_curve(sizes=SIZES, shard_counts=SHARD_COUNTS, rounds=3):
    """Median ``all_facets`` seconds per (size, shard count) — the
    shard axis of the scalability curve.  Every round lists on a fresh
    session, so the id-level scan is measured, not a revisit or a
    recount of the last round's rows."""
    curve = {}
    for size in sizes:
        graph = synthetic_graph(SyntheticConfig(laptops=size, seed=21))
        per_shards = {}
        for shards in shard_counts:
            store = ShardedGraph.from_graph(graph, shards=shards)
            session = FacetedAnalyticsSession(store)
            session.select_class(EX.Laptop)
            _, samples = cold_listings(
                session.graph, session.extension, rounds)
            per_shards[shards] = statistics.median(samples)
        curve[size] = per_shards
    return curve


def test_scalability_shard_curve(benchmark, artifact_writer):
    curve = benchmark.pedantic(measure_shard_curve, rounds=1, iterations=1)

    body = [
        (size, *(f"{curve[size][n] * 1000:.1f} ms" for n in SHARD_COUNTS))
        for size in curve
    ]
    text = "Scalability of all_facets across shard counts\n"
    text += format_table(
        ["laptops"] + [f"{n} shard(s)" for n in SHARD_COUNTS], body)
    artifact_writer("scalability_shards.txt", text)

    # Shape: adding shards never blows the scan up catastrophically.
    for size, per_shards in curve.items():
        base = per_shards[min(per_shards)]
        for shards, seconds in per_shards.items():
            assert seconds < max(base, 1e-4) * 50


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
        lambda session: session.property_facets(), setup=fresh, rounds=30)
    assert len(facets) >= 5


def test_facet_cache_hit_speed(benchmark):
    """The same listing served again from the state it was made on."""
    graph = synthetic_graph(SyntheticConfig(laptops=400, seed=21))
    session = FacetedAnalyticsSession(graph)
    session.select_class(EX.Laptop)
    session.property_facets()  # populate
    facets = benchmark(session.property_facets)
    assert len(facets) >= 5
    assert session.cache_stats()["facets"].hits > 0
