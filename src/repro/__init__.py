"""RDF-Analytics: interactive analytics over RDF knowledge graphs.

A from-scratch reproduction of *"Interactive Analytics over RDF
Knowledge Graphs"* (Papadaki, PhD dissertation, University of Crete,
2023; the EDBT 2023 system paper "RDF-ANALYTICS").

Layered public API:

* :mod:`repro.rdf` — RDF terms, indexed graphs, RDFS inference,
  Turtle/N-Triples I/O;
* :mod:`repro.sparql` — a SPARQL 1.1 engine subset (BGPs, OPTIONAL,
  UNION, FILTER, aggregates, HAVING, subqueries, paths);
* :mod:`repro.hifun` — the HIFUN analytics language, its SPARQL
  translation (Ch. 4), native evaluation and feature operators;
* :mod:`repro.facets` — faceted search over RDF and its analytics
  extension (Ch. 5): states, transitions with counts, G/Σ actions,
  answer frames, nested queries;
* :mod:`repro.analysis` — schema-aware static analysis: HIFUN
  type-checking, SPARQL linting and translation-consistency checks
  (strict mode via ``FacetedSession(analyze=True)``);
* :mod:`repro.olap` — roll-up/drill-down/slice/dice/pivot (Ch. 7);
* :mod:`repro.viz` — tables, chart series, the spiral layout and the
  3D city metaphor (§6.3);
* :mod:`repro.datasets` — the running-example KGs and a synthetic
  generator;
* :mod:`repro.endpoint` — local and latency-simulated SPARQL endpoints
  (Ch. 6 efficiency experiments);
* :mod:`repro.evaluation` — the eight evaluation tasks and the
  simulated user study (Ch. 8);
* :mod:`repro.survey` — the related-work catalog (Ch. 3).

Quickstart::

    from repro.datasets import products_graph
    from repro.facets import FacetedAnalyticsSession
    from repro.rdf.namespace import EX

    session = FacetedAnalyticsSession(products_graph())
    session.select_class(EX.Laptop)
    session.group_by((EX.manufacturer,))
    session.measure((EX.price,), "AVG")
    frame = session.run()
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.rdf.graph import Graph

__version__ = "1.0.0"

__all__ = [
    "rdf",
    "sparql",
    "hifun",
    "analysis",
    "facets",
    "olap",
    "viz",
    "datasets",
    "endpoint",
    "evaluation",
    "survey",
    "stats",
    "search",
    "app",
    "load_graph",
    "open_session",
]


def load_graph(path: str) -> "Graph":
    """Load an RDF graph from a file, dispatching on the extension.

    ``.csv`` → the statistical CSV import of system 1b (headers become
    properties); every suffix :func:`repro.rdf.bulkload.load_file`
    knows goes through it (N-Triples is streamed, and malformed
    N-Triples or Turtle raises :class:`~repro.rdf.bulkload.BulkLoadError`
    carrying its ``line``); anything else is read as Turtle.
    """
    if path.lower().endswith(".csv"):
        from repro.datasets.csv_import import graph_from_csv

        with open(path, encoding="utf-8") as handle:
            return graph_from_csv(handle.read())
    from repro.rdf import turtle
    from repro.rdf.bulkload import BulkLoadError, load_file

    try:
        return load_file(path)[0]
    except BulkLoadError as exc:
        if exc.line is not None:  # a located error is about the content
            raise
    with open(path, encoding="utf-8") as handle:
        return turtle.parse(handle.read())


def open_session(source):
    """Open a :class:`~repro.facets.analytics.FacetedAnalyticsSession`.

    ``source`` may be a :class:`~repro.rdf.Graph` or a file path
    (resolved with :func:`load_graph`).
    """
    from repro.facets import FacetedAnalyticsSession
    from repro.rdf.graph import Graph

    graph = source if isinstance(source, Graph) else load_graph(source)
    return FacetedAnalyticsSession(graph)
