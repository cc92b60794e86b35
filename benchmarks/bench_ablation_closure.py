"""Ablation — precomputed RDFS closure vs. on-demand traversal.

DESIGN.md design choice 2: the facet engine materializes the RDFS
closure once at session start.  The ablation compares answering
"instances of a superclass" many times (as every facet-count refresh
does) against recomputing the subclass traversal on demand.
"""

import time

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.rdf.namespace import EX, RDF, RDFS
from repro.rdf.rdfs import RDFSClosure

from conftest import min_alternating

REQUESTS = 200
REPETITIONS = 5


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
            set(closed.subjects(RDF.type, EX.Product))

    def demand_lookups():
        for _ in range(REQUESTS):
            on_demand_instances(graph, EX.Product)

    assert (set(closed.subjects(RDF.type, EX.Product))
            == on_demand_instances(graph, EX.Product))
    closed_lookup, demand_lookup = min_alternating(
        [closed_lookups, demand_lookups], REPETITIONS)
    return closure_build, closed_lookup, demand_lookup


def test_ablation_closure(benchmark, artifact_writer):
    build, closed_lookup, demand_lookup = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )
    text = (
        "Ablation: precomputed closure vs on-demand traversal "
        f"(400 laptops, {REQUESTS} instance lookups, "
        f"min of {REPETITIONS} alternating repetitions)\n\n"
        f"  closure build (once)     : {build * 1000:.1f} ms\n"
        f"  lookups on closed graph  : {closed_lookup * 1000:.1f} ms\n"
        f"  lookups via traversal    : {demand_lookup * 1000:.1f} ms\n\n"
        "Break-even after "
        f"{build / max((demand_lookup - closed_lookup) / REQUESTS, 1e-9):.0f} "
        "lookups.\n"
    )
    artifact_writer("ablation_closure.txt", text)
    # Same answers; the materialized lookups must not be slower per call
    # (small tolerance: both paths share the instance-scan cost, so the
    # margin is the traversal overhead only).
    assert closed_lookup <= demand_lookup * 1.05
