"""Ablation — answering roll-ups from materialized answers vs. base data.

The optimization the survey credits to [16]/[51]: a coarser analytic
query is computed by re-aggregating the finer materialized answer
instead of re-scanning the base data.  Measures both on growing invoice
datasets; answers asserted identical.  What it asserts about cost is
counted, not timed: the store triples each side reads, counted by
``conftest.CountingGraph``.
"""

from repro.datasets import make_invoices
from repro.hifun import Attribute, HifunQuery, evaluate_hifun, pair
from repro.hifun.attributes import Derived
from repro.olap import derived_mapping, roll_up_from_answer
from repro.rdf.namespace import EX

from conftest import CountingGraph, format_table, min_alternating

SIZES = (200, 800, 3200)


def run_ablation():
    takes = Attribute(EX.takesPlaceAt)
    qty = Attribute(EX.inQuantity)
    has_date = Attribute(EX.hasDate)
    fine_query = HifunQuery(pair(takes, has_date), qty, "SUM")
    coarse_query = HifunQuery(
        pair(takes, Derived("MONTH", has_date)), qty, "SUM")

    def sides(graph):
        """``(fine answer, roll-up from it, re-evaluation from base)``."""
        fine = evaluate_hifun(graph, fine_query, root_class=EX.Invoice)
        return (
            fine,
            lambda: roll_up_from_answer(fine, 1, derived_mapping("MONTH")),
            lambda: evaluate_hifun(graph, coarse_query, root_class=EX.Invoice))

    rows = []
    for size in SIZES:
        graph = make_invoices(size, branches=8, seed=4)
        fine, rewrite, evaluate = sides(graph)
        rewritten, direct = rewrite(), evaluate()
        assert rewritten.rows() == direct.rows(), size
        # Each side's best of five rounds taking turns: a load spike on
        # the host hits both, and first-call costs are no round's best.
        rewrite_seconds, direct_seconds = min_alternating((rewrite, evaluate))
        # the work, on a counting twin of the store
        store = CountingGraph(graph)
        _, *counted = sides(store)
        rows.append((size, len(fine), len(direct), rewrite_seconds,
                     direct_seconds, *(store.reads(side)[2] for side in counted)))
    return rows


def test_ablation_materialized_rollup(benchmark, artifact_writer):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    body = [
        (size, fine_groups, coarse_groups,
         f"{rewrite * 1000:.2f} ms", f"{direct * 1000:.2f} ms",
         f"{direct / max(rewrite, 1e-9):.1f}x", rewrite_triples, direct_triples)
        for size, fine_groups, coarse_groups, rewrite, direct,
        rewrite_triples, direct_triples in rows
    ]
    text = "Ablation: roll-up from the materialized answer vs re-evaluating "
    text += "the base data (answers identical)\n"
    text += format_table(
        ["invoices", "fine groups", "coarse groups", "from answer",
         "from base", "speedup", "triples read (from answer)",
         "triples read (from base)"],
        body,
    )
    artifact_writer("ablation_materialized.txt", text)
    # The rewrite must win in work: the roll-up re-aggregates the answer
    # and reads no store triple, while re-evaluating the base data reads
    # at least one per invoice.
    for size, *_, rewrite_triples, direct_triples in rows:
        assert rewrite_triples == 0 < size <= direct_triples, size
