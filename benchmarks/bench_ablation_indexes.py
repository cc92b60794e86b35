"""Ablation — index-backed vs. full-scan triple-pattern matching.

DESIGN.md design choice 1: the graph keeps SPO/POS indexes and the
SPARQL evaluator orders patterns by selectivity.  The ablation replaces
the indexed lookup with a full scan and measures the slowdown on a
representative analytic query.  What it asserts is counted, not timed:
the triples the indexed store hands the evaluator
(``conftest.CountingGraph``) against the rows the scanning store reads.

There is no OSP index: a read keyed on the object alone goes through
one POS probe per predicate, so its cost grows with the number of
predicates.  The second table prices that on random graphs with 10 and
with 1 000 predicates: ``triples(None, None, o)`` per probe, and the
inverse listing (``applicable_properties(include_inverse=True)`` on a
fresh session: the steps of the listing it computes).  Both are
checked against a full scan; no timing is asserted.
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
from conftest import CountingGraph, format_table


class ScanGraph(Graph):
    """A Graph whose pattern matching always scans every triple,
    counting the rows it scans."""

    rows = 0

    def triples_ids(self, si=None, pi=None, oi=None):
        """The one probe: the evaluator reads in ids, and ``triples``
        derives from it, so both scan."""
        for t in super().triples_ids(None, None, None):
            self.rows += 1
            if ((si is None or t[0] == si) and (pi is None or t[1] == pi)
                    and (oi is None or t[2] == oi)):
                yield t

    def count_ids(self, si=None, pi=None, oi=None):
        """The planner's probe (and ``count`` through it), scanning."""
        return sum(1 for _ in self.triples_ids(si, pi, oi))

    def objects_ids(self, si, pi):
        """The join's read of a bound subject and predicate, scanning."""
        return {o for _, _, o in self.triples_ids(si, pi, None)}

    def objects_column(self, subjects, pi):
        """The star's read of many subjects under one predicate: a
        scan per subject."""
        rows = [self.objects_ids(si, pi) for si in subjects]
        return [o for row in rows for o in row], list(map(len, rows))


def build(size):
    triples = list(synthetic_graph(SyntheticConfig(laptops=size, seed=3)))
    return CountingGraph(triples), ScanGraph(triples)


def run_ablation(size=200, queries=("Q4", "Q6", "Q8")):
    indexed, scan = build(size)
    selected = [(qid, q) for qid, _, q in WORKLOAD if qid in queries]
    rows = []
    for qid, query in selected:
        translation = translate(query, root_class=EX.Laptop)
        indexed.triples = scan.rows = 0

        started = time.perf_counter()
        fast = sparql(indexed, translation.text)
        indexed_seconds = time.perf_counter() - started

        started = time.perf_counter()
        slow = sparql(scan, translation.text)
        scan_seconds = time.perf_counter() - started

        assert len(fast) == len(slow)
        rows.append((qid, indexed_seconds, scan_seconds, indexed.triples,
                     scan.rows))
    return rows


def object_keyed_reads(predicates, triples=100_000, probes=200,
                       members=100, seed=3):
    """``(µs per triples(None, None, o) probe, ms per inverse
    listing)`` on a random graph of ``triples`` edges over
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

    probe_seconds = listing_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        found = [set(graph.triples(None, None, o)) for o in objects]
        probe_seconds = min(probe_seconds, time.perf_counter() - started)
        assert found == [by_object[o] for o in objects]

        session = FacetedSession(graph, results=extension, closed=True)
        started = time.perf_counter()
        refs = session.applicable_properties(include_inverse=True)
        listing_seconds = min(listing_seconds, time.perf_counter() - started)
    chosen = set(extension)
    assert set(refs) == (
        {PropertyRef(p) for s, p, _ in graph if s in chosen}
        | {PropertyRef(p, inverse=True) for _, p, o in graph if o in chosen})
    return probe_seconds / probes * 1e6, listing_seconds * 1000


def test_ablation_indexes(benchmark, artifact_writer):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    body = [
        (qid, f"{fast * 1000:.1f} ms", f"{slow * 1000:.1f} ms",
         f"{slow / max(fast, 1e-9):.0f}x", handed, scanned)
        for qid, fast, slow, handed, scanned in rows
    ]
    text = "Ablation: indexed vs full-scan BGP matching (200 laptops)\n"
    text += format_table(["query", "indexed", "full scan", "slowdown",
                          "triples handed (indexed)", "rows scanned"], body)
    text += ("\nObject-keyed reads through POS (100 000 random triples, "
             "10 000 nodes)\n")
    text += format_table(
        ["predicates", "triples(None, None, o)", "inverse listing"],
        [(n, f"{probe:.0f} µs", f"{listing:.1f} ms")
         for n, (probe, listing) in
         ((n, object_keyed_reads(n)) for n in (10, 1000))])
    artifact_writer("ablation_indexes.txt", text)

    # The indexes must win clearly on every measured query, in triples
    # read: a bound subject's row, not a scan.  (Probing ``(None, p,
    # None)`` for a bound subject hands over 6-8x fewer triples than a
    # scan reads here, the indexes 580-870x fewer.)
    assert all(handed * 100 <= scanned for *_, handed, scanned in rows)
