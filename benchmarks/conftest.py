"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the dissertation and
writes the rendered artifact into the artifact directory (also echoed
to stdout): the untracked ``benchmarks/.scratch/`` by default, the
checked-in baselines under ``benchmarks/out/`` only via ``make
bench-refresh`` (see ``_workload.OUT_DIR``).

Every benchmark module additionally leaves a machine-readable
``<name>.json`` twin there: modules with structured results call
:func:`_workload.write_bench_json` themselves; for the rest, the
session-finish hook below converts their pytest-benchmark stats.  The
JSON artifacts are what ``tools/bench_compare.py`` diffs to catch
performance regressions between runs.

The ``overhead < 5 %`` bars of the resilience wrapper and of strict
mode are enforced only in a dedicated benchmark run — see
:func:`wall_clock_bar`; the tier-1 run keeps those benches' logic
assertions.
"""

import gc
import os
import time

import pytest
from _pytest.mark.expression import Expression

from repro.facets import FacetedSession

from _workload import OUT_DIR


def pytest_sessionfinish(session, exitstatus):
    """Auto-emit the JSON twin of every benchmark module that did not
    write one explicitly (see ``_workload.write_bench_json``)."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not getattr(bench_session, "benchmarks", None):
        return
    from _workload import _WRITTEN, write_bench_json

    by_module = {}
    for meta in bench_session.benchmarks:
        if meta.has_error or not meta.stats.data:
            continue
        module_part, _, test_part = meta.fullname.partition("::")
        stem = os.path.basename(module_part)
        if stem.endswith(".py"):
            stem = stem[:-3]
        if stem.startswith("bench_"):
            stem = stem[len("bench_"):]
        label = test_part or meta.name
        if label.startswith("test_"):
            label = label[len("test_"):]
        by_module.setdefault(stem, {})[label] = meta.stats.median * 1000.0
    for stem, ops in sorted(by_module.items()):
        if stem in _WRITTEN or not ops:
            continue
        # "default": the stamp of the checked-in baselines these diff against.
        write_bench_json(stem, ops, params={"source": f"bench_{stem}.py"},
                         engine="default")


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


def _selects_smoke(markexpr: str) -> bool:
    """Does this ``-m`` expression pick tests *for* bearing the smoke
    marker — true of a smoke-only test, false of an unmarked one?"""
    if not markexpr:
        return False
    expression = Expression.compile(markexpr)
    return (expression.evaluate(lambda name, **_: name == "smoke")
            and not expression.evaluate(lambda name, **_: False))


@pytest.fixture
def wall_clock_bar(request):
    """``check(ok, message)``: assert a timing bar — in a dedicated
    benchmark run only: one whose ``-m`` selects this smoke-marked test
    for its marker (``make bench-smoke``), or a ``--benchmark-only``
    one (``make bench``, ``make bench-refresh``).  In the plain tier-1
    run a ratio of two short timings taken amid the whole suite is
    noise; it must not gate correctness."""
    config = request.config
    enforced = request.node.get_closest_marker("smoke") is not None and (
        _selects_smoke(config.getoption("markexpr"))
        or config.getoption("benchmark_only", False))

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
