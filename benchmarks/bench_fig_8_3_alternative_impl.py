"""Fig. 8.3 — the alternative (SPARQL-only) implementation of the model.

The dissertation discusses implementing the interaction model purely
through SPARQL queries against the endpoint (Tables 5.1/5.2), which
works with any remote triple store, versus the native index-based
implementation.  This benchmark runs the same facet workload through
both engines, asserts identical facets — values *and* counts, the
two-step path's and the whole listing's included — and compares costs
and the queries the SPARQL-only side sends: the trade-off the "testing
implementability" section (§8.2) is about.
"""

import time


from repro.datasets import SyntheticConfig, synthetic_graph
from repro.facets import FacetedSession, SparqlFacetEngine
from repro.facets.model import PropertyRef, joins
from repro.rdf.namespace import EX
from repro.rdf.rdfs import RDFSClosure

from conftest import format_table

FACET_PATHS = (
    (PropertyRef(EX.manufacturer),),
    (PropertyRef(EX.USBPorts),),
    (PropertyRef(EX.hardDrive),),
)
MAKER_ORIGIN = (PropertyRef(EX.manufacturer), PropertyRef(EX.origin))


def run_comparison(size=300):
    closed = RDFSClosure(synthetic_graph(SyntheticConfig(laptops=size, seed=2))).graph()
    session = FacetedSession(closed, closed=True)
    session.select_class(EX.Laptop)
    engine = SparqlFacetEngine(closed)
    extension = session.extension

    def timed(native, via_sparql):
        """Both sides' answers and seconds, and the queries sent."""
        started = time.perf_counter()
        native_answer = native()
        native_seconds = time.perf_counter() - started
        sent = len(engine.endpoint.history)
        started = time.perf_counter()
        sparql_answer = via_sparql()
        sparql_seconds = time.perf_counter() - started
        return (native_answer, sparql_answer, native_seconds, sparql_seconds,
                len(engine.endpoint.history) - sent)

    rows = []
    for name, path in [(path[-1].name, path) for path in FACET_PATHS] + [
            ("manufacturer▷origin", MAKER_ORIGIN)]:
        native_facet, sparql_facet, *costs = timed(
            lambda: session.facet(path), lambda: engine.facet(extension, path))
        assert sparql_facet == native_facet, path
        rows.append((name, *costs, len(native_facet.values)))

    native_joins, sparql_joins, *costs = timed(
        lambda: joins(closed, joins(closed, extension, MAKER_ORIGIN[0]),
                      MAKER_ORIGIN[1]),
        lambda: engine.joins(extension, MAKER_ORIGIN))
    assert native_joins == sparql_joins
    rows.append(("manufacturer▷origin (joins)", *costs, len(sparql_joins)))

    native_listing, sparql_listing, *costs = timed(
        session.all_facets, lambda: engine.all_facets(extension))
    assert list(sparql_listing) == native_listing
    rows.append(("listing (every facet)", *costs,
                 sum(len(facet.values) for facet in native_listing)))
    return rows


def test_fig_8_3_alternative_implementation(benchmark, artifact_writer):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    body = [
        (name, f"{native * 1000:.1f} ms", f"{via_sparql * 1000:.1f} ms",
         f"{via_sparql / max(native, 1e-9):.1f}x", queries, values)
        for name, native, via_sparql, queries, values in rows
    ]
    text = "Alternative implementation (Fig. 8.3): native engine vs "
    text += "SPARQL-only evaluation (300 laptops; identical facets and counts;"
    text += " queries = SPARQL queries sent, native sends none)\n"
    text += format_table(
        ["facet", "native", "SPARQL-only", "overhead", "queries", "values"],
        body)
    artifact_writer("fig_8_3_alternative_impl.txt", text)
    assert len(rows) == len(FACET_PATHS) + 3
    assert [queries for *_, queries, _ in rows] == [2, 2, 2, 2, 1, 2]
