"""Ablation — index-backed vs. full-scan triple-pattern matching.

DESIGN.md design choice 1: the graph keeps SPO/POS indexes and the
SPARQL evaluator orders patterns by selectivity.  The ablation replaces
the indexed lookup with a full scan and measures the slowdown on a
representative analytic query.

There is no OSP index: a read keyed on the object alone goes through
one POS probe per predicate, so its cost grows with the number of
predicates.  The second table prices that on random graphs with 10 and
with 1 000 predicates: ``triples(None, None, o)`` per probe, and
inverse-property discovery (``applicable_properties(include_inverse=
True)`` on a fresh session).  Both are checked against a full scan;
no timing is asserted.
"""

import random
import time
from collections import defaultdict


from repro.datasets import SyntheticConfig, synthetic_graph
from repro.facets import FacetedSession
from repro.facets.model import PropertyRef
from repro.hifun import translate
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX
from repro.sparql import query as sparql

from _workload import WORKLOAD
from conftest import format_table


class ScanGraph(Graph):
    """A Graph whose pattern matching always scans every triple."""

    def triples(self, s=None, p=None, o=None):
        for ts, tp, to in super().triples(None, None, None):
            if s is not None and ts != s:
                continue
            if p is not None and tp != p:
                continue
            if o is not None and to != o:
                continue
            yield (ts, tp, to)

    def count(self, s=None, p=None, o=None):
        return sum(1 for _ in self.triples(s, p, o))


def build(size):
    indexed = synthetic_graph(SyntheticConfig(laptops=size, seed=3))
    scan = ScanGraph(indexed.triples())
    return indexed, scan


def run_ablation(size=200, queries=("Q4", "Q6", "Q8")):
    indexed, scan = build(size)
    selected = [(qid, q) for qid, _, q in WORKLOAD if qid in queries]
    rows = []
    for qid, query in selected:
        translation = translate(query, root_class=EX.Laptop)

        started = time.perf_counter()
        fast = sparql(indexed, translation.text)
        indexed_seconds = time.perf_counter() - started

        started = time.perf_counter()
        slow = sparql(scan, translation.text)
        scan_seconds = time.perf_counter() - started

        assert len(fast) == len(slow)
        rows.append((qid, indexed_seconds, scan_seconds))
    return rows


def object_keyed_reads(predicates, triples=100_000, probes=200,
                       members=100, seed=3):
    """``(µs per triples(None, None, o) probe, ms per inverse
    discovery)`` on a random graph of ``triples`` edges over
    ``predicates`` predicates and ``triples // 10`` nodes, each the
    best of three passes, every answer equal to the full scan's."""
    rng = random.Random(seed)
    nodes = [EX.term(f"n{i}") for i in range(triples // 10)]
    preds = [EX.term(f"p{i}") for i in range(predicates)]
    graph = Graph()
    while len(graph) < triples:
        graph.add(rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
    by_object = defaultdict(set)
    for t in graph:
        by_object[t[2]].add(t)
    objects, extension = nodes[:probes], nodes[:members]

    probe_seconds = discovery_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        found = [set(graph.triples(None, None, o)) for o in objects]
        probe_seconds = min(probe_seconds, time.perf_counter() - started)
        assert found == [by_object[o] for o in objects]

        session = FacetedSession(graph, results=extension, closed=True)
        started = time.perf_counter()
        refs = session.applicable_properties(include_inverse=True)
        discovery_seconds = min(discovery_seconds,
                                time.perf_counter() - started)
    chosen = set(extension)
    assert set(refs) == (
        {PropertyRef(p) for s, p, _ in graph if s in chosen}
        | {PropertyRef(p, inverse=True) for _, p, o in graph if o in chosen})
    return probe_seconds / probes * 1e6, discovery_seconds * 1000


def test_ablation_indexes(benchmark, artifact_writer):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    body = [
        (qid, f"{fast * 1000:.1f} ms", f"{slow * 1000:.1f} ms",
         f"{slow / max(fast, 1e-9):.0f}x")
        for qid, fast, slow in rows
    ]
    text = "Ablation: indexed vs full-scan BGP matching (200 laptops)\n"
    text += format_table(["query", "indexed", "full scan", "slowdown"], body)
    text += ("\nObject-keyed reads through POS (100 000 random triples, "
             "10 000 nodes)\n")
    text += format_table(
        ["predicates", "triples(None, None, o)", "inverse discovery"],
        [(n, f"{probe:.0f} µs", f"{discovery:.1f} ms")
         for n, (probe, discovery) in
         ((n, object_keyed_reads(n)) for n in (10, 1000))])
    artifact_writer("ablation_indexes.txt", text)

    # The indexes must win clearly on every measured query.
    assert all(slow > fast * 3 for _, fast, slow in rows)
