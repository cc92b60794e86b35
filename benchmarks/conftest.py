"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the dissertation and
writes the rendered ``.txt`` artifact into the artifact directory (also
echoed to stdout): the untracked ``benchmarks/.scratch/`` by default,
the checked-in baselines under ``benchmarks/out/`` only via ``make
bench-refresh`` (see ``_workload.OUT_DIR``).  Performance regressions
are gated by ``perf/`` (``python3 perf/run.py compare A.json B.json``),
not here.

The ``overhead < 5 %`` bars of the resilience wrapper and of strict
mode are enforced only in a dedicated benchmark run — see
:func:`wall_clock_bar`; the tier-1 run keeps those benches' logic
assertions.
"""

import gc
import os
import time

import pytest

from repro.facets import FacetedSession

from _workload import OUT_DIR


@pytest.fixture(scope="session")
def artifact_writer():
    os.makedirs(OUT_DIR, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = os.path.join(OUT_DIR, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"\n===== {name} =====")
        print(text)
        return path

    return write


@pytest.fixture
def wall_clock_bar(request):
    """``check(ok, message)``: assert a timing bar — in a
    ``--benchmark-only`` run only (``make bench``, ``make
    bench-refresh``).  In the plain tier-1 run a ratio of two short
    timings taken amid the whole suite is noise; it must not gate
    correctness."""
    enforced = request.config.getoption("benchmark_only", False)

    def check(ok: bool, message: str) -> None:
        if enforced:
            assert ok, message

    return check


def min_alternating(sides, repetitions=5):
    """Best wall-clock seconds of each zero-argument callable in
    ``sides`` over ``repetitions`` rounds in which the sides take turns,
    so a load spike on the host hits every side instead of skewing
    their ratio — what a hard ``a <= b * k`` assert in tier-1 needs."""
    best = [float("inf")] * len(sides)
    for _ in range(repetitions):
        for index, side in enumerate(sides):
            started = time.perf_counter()
            side()
            best[index] = min(best[index], time.perf_counter() - started)
    return best


def cold_listings(graph, extension, rounds, include_inverse=False):
    """``(listing, [seconds per round])`` of ``all_facets`` over
    ``extension`` on the closed ``graph``, every round on a fresh
    session — so the scan is what is timed: nothing a state remembers
    can serve it."""
    samples = []
    for _ in range(rounds):
        session = FacetedSession(graph, results=extension, closed=True)
        gc.collect()
        started = time.perf_counter()
        listing = session.all_facets(include_inverse)
        samples.append(time.perf_counter() - started)
    return listing, samples


def format_table(headers, rows) -> str:
    """Plain-text table used by all artifacts."""
    cells = [list(map(str, headers))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [
        " | ".join(value.ljust(width) for value, width in zip(cells[0], widths)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in cells[1:]:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
