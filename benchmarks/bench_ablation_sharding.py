"""Ablation — the sharded store vs. its own single-shard case.

Per dataset size, the interaction-critical ``all_facets`` scan and a
two-query analytic slice are measured across shard counts (1, 4, 8 by
default), each variant with a built-in equality check against the
single-shard answers and — for the analytic slice — the row engine
(a timing is meaningless if the answers differ).  Every variant is a
:class:`~repro.rdf.sharding.ShardedGraph` running the same code: the
session keeps its extension as dictionary ids, ``Graph.facet_counts``
scans each slice in turn, and the store merges the slices' counts —
``shards=1`` is that with one slice and a merge of one part.

The sweep records what partitioning costs a scan that stays in one
process; it has no speed-up to show and asserts none (the verdict and
its numbers are frozen in EXPERIMENTS.md, *Ablations*).  What it
asserts about cost is counted: summed over the slices, a sharded
listing reads exactly the store triples the flat listing reads
(``conftest.CountingGraph``).

Sizes come from ``REPRO_BENCH_SIZES``.
"""

import gc
import os
import statistics
import time

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.facets import FacetedAnalyticsSession
from repro.hifun import evaluate_hifun
from repro.hifun.evaluator import evaluate_hifun_row
from repro.rdf.namespace import EX
from repro.rdf.sharding import ShardedGraph

from _workload import WORKLOAD
from conftest import CountingGraph, cold_listings, format_table

SIZES = tuple(
    int(size)
    for size in os.environ.get("REPRO_BENCH_SIZES", "100,400,1600").split(",")
)

#: Shard counts swept per size; 1 is the baseline variant.
SHARD_COUNTS = tuple(
    int(n)
    for n in os.environ.get("REPRO_BENCH_SHARDS", "1,4,8").split(",")
)

#: The analytic slice: one plain group-by and one path-2 grouping —
#: enough to exercise the frontier fan-out without dominating the
#: facet measurement this ablation is about.
ANALYTIC_QIDS = ("Q4", "Q6")

ROUNDS = 5


def _median_of(fn, rounds: int = ROUNDS) -> float:
    samples = []
    for _ in range(rounds):
        gc.collect()
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _measure_variant(store, session):
    """(facet listing, facet seconds, analytic answers, analytic seconds)
    with every listing made on a fresh session — the id-level scan is
    what is measured, not a revisit or a recount of the previous
    round's rows.  The analytic slice runs on the raw ``store``
    (closure-free), so its rows are comparable to a row-engine run over
    the unpartitioned source graph."""
    queries = [q for qid, _, q in WORKLOAD if qid in ANALYTIC_QIDS]

    def analytic():
        return [
            evaluate_hifun(store, query, root_class=EX.Laptop)
            for query in queries
        ]

    listing, samples = cold_listings(
        session.graph, session.extension, ROUNDS, include_inverse=True)
    return (listing, statistics.median(samples),
            analytic(), _median_of(analytic))


def listing_triples(session):
    """The store triples one cold listing of ``session``'s extension
    reads: off its store, or summed over its slices when it is sharded,
    each turned into a counting store in place."""
    store = session.graph
    pieces = store.shards if isinstance(store, ShardedGraph) else (store,)
    for piece in pieces:
        piece.__class__ = CountingGraph
        piece.triples = 0
    cold_listings(store, session.extension, 1)
    return sum(piece.triples for piece in pieces)


def laptops(store):
    session = FacetedAnalyticsSession(store)
    session.select_class(EX.Laptop)
    return session


def run_ablation(sizes=SIZES, shard_counts=SHARD_COUNTS):
    """Per size: ``{shards: {"facets_s": ..., "analytic_s": ...,
    "triples": ...}}``, after the equality checks — the listing's
    triples read (sharded / flat) among them."""
    results = {}
    for size in sizes:
        graph = synthetic_graph(SyntheticConfig(laptops=size, seed=21))
        queries = [q for qid, _, q in WORKLOAD if qid in ANALYTIC_QIDS]
        row_answers = [
            evaluate_hifun_row(graph, query, root_class=EX.Laptop)
            for query in queries
        ]
        per_size = {}
        baseline_listing = None
        flat = listing_triples(laptops(graph))
        for shards in shard_counts:
            store = ShardedGraph.from_graph(graph, shards=shards)
            session = laptops(store)
            listing, facets_s, answers, analytic_s = _measure_variant(
                store, session)
            # Every shard count must reproduce the single-shard facet
            # listing and the row engine's analytic rows exactly.
            if baseline_listing is None:
                baseline_listing = listing
            else:
                assert listing == baseline_listing, (
                    f"facet listing diverged at {shards} shards")
            for row_answer, answer in zip(row_answers, answers):
                assert row_answer.rows() == answer.rows(), (
                    f"analytic rows diverged at {shards} shards")
            # Partitioning splits the scan, never repeats it: the slices
            # read, between them, the triples the flat store reads.
            triples = listing_triples(session)
            assert triples == flat, (
                f"listing read {triples} triples at {shards} shards, "
                f"{flat} flat")
            per_size[shards] = {
                "facets_s": facets_s,
                "analytic_s": analytic_s,
                "triples": f"{triples} / {flat}",
            }
        results[size] = per_size
    return results


def test_ablation_sharding(benchmark, artifact_writer):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    body = []
    for size, per_size in results.items():
        base = per_size[min(per_size)]
        for shards, timing in per_size.items():
            facet_speedup = base["facets_s"] / max(timing["facets_s"], 1e-9)
            body.append((
                size,
                shards,
                f"{timing['facets_s'] * 1000:.1f} ms",
                f"{facet_speedup:.1f}x",
                f"{timing['analytic_s'] * 1000:.1f} ms",
                timing["triples"],
            ))

    text = "Ablation: all_facets + analytic slice across shard counts\n"
    text += format_table(
        ["laptops", "shards", "all_facets", "speedup", "analytic",
         "listing triples read (sharded / flat)"],
        body,
    )
    artifact_writer("ablation_sharding.txt", text)
