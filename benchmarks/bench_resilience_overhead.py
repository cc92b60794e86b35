"""Resilience-layer overhead at fault rate zero.

The acceptance bar for the :class:`~repro.endpoint.ResilientEndpoint`
wrapper: on a healthy endpoint (no faults injected, no retries fired)
the deadline/retry/circuit-breaker plumbing must add **< 5 %** to the
cost of the same workload on a bare :class:`~repro.endpoint.LocalEndpoint`.
Timing takes the minimum over several batches, so scheduler noise does
not masquerade as overhead — and the bar itself is enforced only under
``-m smoke`` (``make bench-smoke``); the tier-1 run keeps the logic
assertions (no retries, no failures, circuit closed).
"""

import gc
import time

import pytest

from repro.datasets import products_graph
from repro.endpoint import LocalEndpoint, ResilientEndpoint, RetryPolicy

QUERIES = [
    "SELECT ?s WHERE { ?s a ex:Laptop }",
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    ("SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } "
     "GROUP BY ?c ORDER BY DESC(?n)"),
    "ASK { ?s a ex:Laptop }",
]
BATCHES = 7
REPEATS_PER_BATCH = 6


def run_batch(endpoint):
    """One timed pass of the workload on ``endpoint``."""
    gc.collect()
    started = time.perf_counter()
    for _ in range(REPEATS_PER_BATCH):
        for text in QUERIES:
            endpoint.query(text)
    return time.perf_counter() - started


def run_comparison():
    graph = products_graph()
    # Disable the generation-stamped result cache: with it on, every
    # repeat is a cache hit and the wrapper's constant bookkeeping is
    # measured against a near-zero baseline.  The bar is about the cost
    # added to *evaluated* queries, so measure those.
    graph.sparql_cache = None
    bare = LocalEndpoint(graph)
    wrapped = ResilientEndpoint(
        LocalEndpoint(graph), retry=RetryPolicy(), timeout=60.0)

    # Warm both paths once (parser caches, breaker state) before timing.
    run_batch(bare)
    run_batch(wrapped)

    # Interleave the batches so a transient load spike on the host hits
    # both sides rather than skewing the ratio.
    bare_time = wrapped_time = float("inf")
    for _ in range(BATCHES):
        bare_time = min(bare_time, run_batch(bare))
        wrapped_time = min(wrapped_time, run_batch(wrapped))
    return bare_time, wrapped_time, wrapped


@pytest.mark.smoke
def test_resilient_wrapper_overhead(benchmark, artifact_writer, wall_clock_bar):
    bare_time, wrapped_time, wrapped = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    overhead = wrapped_time / bare_time - 1.0
    text = (
        "Resilience wrapper overhead at fault rate 0 "
        f"({len(QUERIES)} queries x {REPEATS_PER_BATCH} repeats, "
        f"min of {BATCHES} batches)\n\n"
        f"  LocalEndpoint (bare)         : {bare_time * 1000:.2f} ms\n"
        f"  ResilientEndpoint(Local)     : {wrapped_time * 1000:.2f} ms\n"
        f"  overhead                     : {overhead * 100:+.2f} %\n\n"
        "Every query succeeded on the first attempt — no retries, no "
        "backoff, circuit closed:\n"
        f"  report: {wrapped.report()}\n"
    )
    artifact_writer("resilience_overhead.txt", text)

    report = wrapped.report()
    assert report["retries"] == 0
    assert report["failures"] == 0
    assert report["circuit_state"] == "closed"
    assert all(s.ok and s.attempts == 1 for s in wrapped.history)
    # The acceptance bar: < 5 % wrapper overhead on a healthy endpoint.
    wall_clock_bar(overhead < 0.05,
                   f"resilience wrapper added {overhead * 100:.1f} % overhead")
