"""Ablation — precomputed RDFS closure vs. on-demand traversal.

DESIGN.md design choice 2: the facet engine materializes the RDFS
closure once at session start.  The ablation compares answering
"instances of a superclass" many times (as every facet-count refresh
does) against recomputing the subclass traversal on demand.  What it
asserts is counted, not timed: the probes and triples each way of
looking up takes from the store, counted by ``conftest.CountingGraph``.
"""

import time

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.rdf.namespace import EX, RDF, RDFS
from repro.rdf.rdfs import RDFSClosure

from conftest import CountingGraph, min_alternating

REQUESTS = 200
REPETITIONS = 5


def closed_instances(graph, cls):
    """inst(c) on a closed graph: one ``rdf:type`` row."""
    return set(graph.subjects(RDF.type, cls))


def on_demand_instances(graph, cls):
    """inst(c) without a materialized closure: traverse subclasses."""
    seen = set()
    stack = [cls]
    instances = set()
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        instances.update(graph.subjects(RDF.type, current))
        stack.extend(graph.subjects(RDFS.subClassOf, current))
    return instances


def run_ablation(size=400):
    graph = synthetic_graph(SyntheticConfig(laptops=size, seed=17))

    started = time.perf_counter()
    closed = RDFSClosure(graph).graph()
    closure_build = time.perf_counter() - started

    def closed_lookups():
        for _ in range(REQUESTS):
            closed_instances(closed, EX.Product)

    def demand_lookups():
        for _ in range(REQUESTS):
            on_demand_instances(graph, EX.Product)

    assert (closed_instances(closed, EX.Product)
            == on_demand_instances(graph, EX.Product))
    closed_lookup, demand_lookup = min_alternating(
        [closed_lookups, demand_lookups], REPETITIONS)
    # the work, on a counting twin of each store
    source = CountingGraph(graph)
    closure = RDFSClosure(source).graph()
    work = (closure.reads(lambda: closed_instances(closure, EX.Product)),
            source.reads(lambda: on_demand_instances(source, EX.Product)))
    return closure_build, closed_lookup, demand_lookup, work


def test_ablation_closure(benchmark, artifact_writer):
    build, closed_lookup, demand_lookup, work = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )
    (closed_probes, _, closed_triples), (demand_probes, _, demand_triples) = work
    text = (
        "Ablation: precomputed closure vs on-demand traversal "
        f"(400 laptops, {REQUESTS} instance lookups, "
        f"min of {REPETITIONS} alternating repetitions)\n\n"
        f"  closure build (once)     : {build * 1000:.1f} ms\n"
        f"  lookups on closed graph  : {closed_lookup * 1000:.1f} ms "
        f"({closed_probes} probe(s), {closed_triples} triples each)\n"
        f"  lookups via traversal    : {demand_lookup * 1000:.1f} ms "
        f"({demand_probes} probe(s), {demand_triples} triples each)\n\n"
        "Break-even after "
        f"{build / max((demand_lookup - closed_lookup) / REQUESTS, 1e-9):.0f} "
        "lookups.\n"
    )
    artifact_writer("ablation_closure.txt", text)
    # Same answers; a materialized lookup is one probe and reads no more
    # triples than the traversal: both hand out every instance once, and
    # the traversal's margin is its subclass probes (here 1 probe and 450
    # triples against 10 probes and 454 triples).
    assert closed_probes == 1 < demand_probes
    assert closed_triples <= demand_triples
