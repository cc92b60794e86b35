"""Strict-mode (static analysis) overhead on the analytic hot path.

The acceptance bar for the ``analyze=True`` wiring of
:class:`~repro.facets.analytics.FacetedAnalyticsSession`: checking every
query against the inferred schema before execution must add **< 5 %** to
the cost of the same ``run()`` workload with the checks off.  Timing
takes the minimum over several interleaved batches, so scheduler noise
does not masquerade as overhead — and the bar itself is enforced only
under ``-m smoke`` (``make bench-smoke``); the tier-1 run keeps the
logic assertion (strict and permissive answers are identical).

Every timed ``run()`` happens on a freshly re-entered state: a repeated
run in an *unchanged* state is a result-cache hit, and the bar is about
the cost the gate adds to *evaluated* queries.
"""

import gc
import time

import pytest

from repro.datasets import products_graph
from repro.facets import FacetedAnalyticsSession
from repro.rdf.namespace import EX

BATCHES = 7
REPEATS_PER_BATCH = 4


def build_sessions(analyze):
    """The three §5.1-style analytic sessions of the workload."""
    avg = FacetedAnalyticsSession(products_graph(), analyze=analyze)
    avg.select_class(EX.Laptop)
    avg.group_by((EX.manufacturer,))
    avg.measure((EX.price,), "AVG")

    count = FacetedAnalyticsSession(products_graph(), analyze=analyze)
    count.select_class(EX.Laptop)
    count.group_by((EX.manufacturer, EX.origin))
    count.count_items()

    derived = FacetedAnalyticsSession(products_graph(), analyze=analyze)
    derived.select_class(EX.Laptop)
    derived.group_by((EX.releaseDate,), derived="YEAR")
    derived.measure((EX.price,), "AVG")
    return (avg, count, derived)


def run_batch(sessions):
    """Seconds spent inside ``run()`` — re-entering the state is not
    part of what the bar compares."""
    gc.collect()
    elapsed = 0.0
    for _ in range(REPEATS_PER_BATCH):
        for session in sessions:
            session.back()
            session.select_class(EX.Laptop)
            started = time.perf_counter()
            session.run()
            elapsed += time.perf_counter() - started
    return elapsed


def run_comparison():
    plain = build_sessions(analyze=False)
    strict = build_sessions(analyze=True)

    # Warm both paths (parser caches, schema cache) before timing.
    run_batch(plain)
    run_batch(strict)

    # Interleave the batches so a transient load spike on the host hits
    # both sides rather than skewing the ratio.
    plain_time = strict_time = float("inf")
    for _ in range(BATCHES):
        plain_time = min(plain_time, run_batch(plain))
        strict_time = min(strict_time, run_batch(strict))
    answers = [[session.run().rows for session in sessions]
               for sessions in (plain, strict)]
    return plain_time, strict_time, answers


@pytest.mark.smoke
def test_static_analysis_overhead(benchmark, artifact_writer, wall_clock_bar):
    plain_time, strict_time, (plain_rows, strict_rows) = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    assert plain_rows == strict_rows and all(plain_rows)
    overhead = strict_time / plain_time - 1.0
    text = (
        "Static-analysis (strict mode) overhead on session.run() "
        f"(3 sessions x {REPEATS_PER_BATCH} repeats, "
        f"min of {BATCHES} batches)\n\n"
        f"  analyze=False (permissive)   : {plain_time * 1000:.2f} ms\n"
        f"  analyze=True  (strict)       : {strict_time * 1000:.2f} ms\n"
        f"  overhead                     : {overhead * 100:+.2f} %\n\n"
        "Every query in the workload is statically clean, so the cost\n"
        "measured is the strict-mode gate itself: schema lookup (cached\n"
        "per graph generation, which a run never bumps) plus the\n"
        "memoized HIFUN check (a query-equality test on unchanged\n"
        "button states).\n"
    )
    artifact_writer("analysis_overhead.txt", text)
    # The acceptance bar: < 5 % checking overhead on clean queries.
    wall_clock_bar(overhead < 0.05,
                   f"static analysis added {overhead * 100:.1f} % overhead")
