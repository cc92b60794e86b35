"""Ablation — answering roll-ups from materialized answers vs. base data.

The optimization the survey credits to [16]/[51]: a coarser analytic
query is computed by re-aggregating the finer materialized answer
instead of re-scanning the base data.  Measures both on growing invoice
datasets; answers asserted identical.
"""

from repro.datasets import make_invoices
from repro.hifun import Attribute, HifunQuery, evaluate_hifun, pair
from repro.hifun.attributes import Derived
from repro.olap import derived_mapping, roll_up_from_answer
from repro.rdf.namespace import EX

from conftest import format_table, min_alternating

SIZES = (200, 800, 3200)


def run_ablation():
    takes = Attribute(EX.takesPlaceAt)
    qty = Attribute(EX.inQuantity)
    has_date = Attribute(EX.hasDate)
    rows = []
    for size in SIZES:
        graph = make_invoices(size, branches=8, seed=4)
        fine_query = HifunQuery(pair(takes, has_date), qty, "SUM")
        fine = evaluate_hifun(graph, fine_query, root_class=EX.Invoice)
        coarse_query = HifunQuery(
            pair(takes, Derived("MONTH", has_date)), qty, "SUM"
        )

        def rewrite():
            return roll_up_from_answer(fine, 1, derived_mapping("MONTH"))

        def evaluate():
            return evaluate_hifun(graph, coarse_query, root_class=EX.Invoice)

        rewritten, direct = rewrite(), evaluate()
        assert rewritten.rows() == direct.rows(), size
        # Each side's best of five rounds taking turns: a load spike on
        # the host hits both, and first-call costs are no round's best.
        rewrite_seconds, direct_seconds = min_alternating((rewrite, evaluate))
        rows.append((size, len(fine), len(direct), rewrite_seconds,
                     direct_seconds))
    return rows


def test_ablation_materialized_rollup(benchmark, artifact_writer):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    body = [
        (size, fine_groups, coarse_groups,
         f"{rewrite * 1000:.2f} ms", f"{direct * 1000:.2f} ms",
         f"{direct / max(rewrite, 1e-9):.1f}x")
        for size, fine_groups, coarse_groups, rewrite, direct in rows
    ]
    text = "Ablation: roll-up from the materialized answer vs re-evaluating "
    text += "the base data (answers identical)\n"
    text += format_table(
        ["invoices", "fine groups", "coarse groups", "from answer",
         "from base", "speedup"],
        body,
    )
    artifact_writer("ablation_materialized.txt", text)
    # The rewrite must win on the larger datasets (small ones are noise).
    speedups = [direct / max(rewrite, 1e-9)
                for _, _, _, rewrite, direct in rows]
    assert all(s > 1.0 for s in speedups[1:])
