"""Ablation — grouped-join facet counts vs. one Restrict per value.

DESIGN.md design choice 4: value counts of a facet are computed in one
pass over the extension's edges.  The naive alternative — one
``Restrict(E, p : v)`` per distinct value — is quadratic when facets
have many values (e.g. a price facet).  This ablation measures both on
a high-cardinality facet and asserts identical counts.  What it asserts
about cost is counted, not timed: the index rows each way reads,
counted by ``conftest.CountingGraph`` — and, for the path
expansion ``manufacturer ▷ origin``, that the prefix join reads the
POS rows of ``manufacturer`` instead of probing every member of the
Laptop class, and probes the members of a state narrowed to one maker.
"""

import time

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.facets import FacetedSession
from repro.facets.model import PropertyRef, path_joins, restrict
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX

from conftest import CountingGraph, format_table

SIZES = (100, 400)


def pos_rows(store, *props):
    """How many value rows the properties have in ``store``, uncounted."""
    return sum(len(Graph.pos_ids(store, store.encode_term(p))) for p in props)


def pos_triples(store, *props):
    """How many triples the properties have in ``store``, uncounted."""
    return sum(map(len, (subjects for p in props for subjects in
                         Graph.pos_ids(store, store.encode_term(p)).values())))


def naive_facet_counts(session, path):
    """The per-value counting the paper's Table 5.2 one-query-per-value
    style would do."""
    marker_sets = path_joins(session.graph, session.extension, path)
    previous = set(session.extension) if len(path) == 1 else marker_sets[-2]
    return {
        value: len(restrict(session.graph, previous, path[-1], value))
        for value in marker_sets[-1]
    }


def run_ablation():
    rows = []
    for size in SIZES:
        graph = synthetic_graph(SyntheticConfig(laptops=size, seed=11))
        session = FacetedSession(graph)
        session.select_class(EX.Laptop)
        path = (PropertyRef(EX.price),)  # high-cardinality facet

        started = time.perf_counter()
        grouped = session.facet(path)
        grouped_seconds = time.perf_counter() - started

        started = time.perf_counter()
        naive = naive_facet_counts(session, path)
        naive_seconds = time.perf_counter() - started

        assert {v.value: v.count for v in grouped.values} == naive
        # the work, on a session over a counting twin of the store
        counting = FacetedSession(CountingGraph(graph))
        counting.select_class(EX.Laptop)
        store = counting.graph
        _, grouped_rows, _ = store.reads(lambda: counting.facet(path))
        _, naive_rows, _ = store.reads(
            lambda: naive_facet_counts(counting, path))
        _, path_rows, _ = store.reads(
            lambda: counting.expand_path(EX.manufacturer, EX.origin))
        # narrowed to the laptops of the largest maker: fewer members
        # than manufacturer triples, so the prefix join walks them
        maker = max(counting.facet(EX.manufacturer).values,
                    key=lambda marker: marker.count)
        counting.select_value(EX.manufacturer, maker.value)
        *_, narrowed = store.reads(
            lambda: counting.expand_path(EX.manufacturer, EX.origin))
        rows.append((size, len(grouped.values), grouped_seconds, naive_seconds,
                     grouped_rows, naive_rows, path_rows,
                     pos_rows(store, EX.manufacturer, EX.origin),
                     narrowed, maker.count + pos_triples(store, EX.origin),
                     pos_triples(store, EX.manufacturer)))
    return rows


def test_ablation_facet_counts(benchmark, artifact_writer):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    body = [
        (size, values, f"{grouped * 1000:.1f} ms", f"{naive * 1000:.1f} ms",
         f"{naive / max(grouped, 1e-9):.0f}x", grouped_rows, naive_rows,
         path_rows, pos_rows, narrowed, walk, maker_triples)
        for size, values, grouped, naive, grouped_rows, naive_rows,
        path_rows, pos_rows, narrowed, walk, maker_triples in rows
    ]
    text = "Ablation: grouped-join vs per-value facet counting "
    text += "(price facet; identical counts)\n"
    text += format_table(
        ["laptops", "distinct values", "grouped join", "per value", "slowdown",
         "rows read (grouped)", "rows read (per value)",
         "rows read (manufacturer ▷ origin)", "POS rows of the two",
         "triples read on one maker's laptops",
         "its laptops + origin's triples", "manufacturer's triples"],
        body,
    )
    artifact_writer("ablation_facet_counts.txt", text)

    # The per-value approach must degrade faster with size, in rows read:
    # the grouped join reads each value row once, so its rows grow no
    # faster than the data (here 145 → 419 for 4x the laptops); the
    # per-value counting reads every member's row once per value, which
    # grows with the square (9 700 → 148 400).
    (*_, g1, n1, _, _, _, _, _), (*_, g2, n2, _, _, _, _, _) = rows
    assert g2 / g1 <= SIZES[1] / SIZES[0] < n2 / n1
    # On every laptop the path expansion joins its prefix on the POS
    # rows of manufacturer and counts origin's: never one SPO probe per
    # laptop (in rows; a member walk reads fewer triples than the POS
    # rows hold).  On one maker's laptops it probes each of them
    # instead, and reads no more triples than their one manufacturer
    # each and origin's: testing manufacturer's rows against them would
    # read every manufacturer triple.
    for *_, path_rows, pos_rows, narrowed, walk, _ in rows:
        assert path_rows <= pos_rows
        assert narrowed <= walk
