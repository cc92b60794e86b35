"""The SPARQL-only evaluation approach (Tables 5.1 / 5.2, Fig. 8.3).

The dissertation gives, for every notation of the interaction model, a
SPARQL expression assuming the current extension is stored in a
temporary class ``temp``:

=====================  =====================================================
 notation               SPARQL expression
=====================  =====================================================
 ``inst(c)``            ``SELECT ?x WHERE { ?x rdf:type <c> }``
 ``E = s.Ext``          ``SELECT ?x WHERE { ?x rdf:type :temp }``
 ``Joins(E, p)``        ``SELECT DISTINCT ?v WHERE { ?x rdf:type :temp . ?x <p> ?v }``
 ``Restrict(E, p:v)``   ``SELECT ?x WHERE { ?x rdf:type :temp . ?x <p> <v> }``
 ``Restrict(E, c)``     ``SELECT ?x WHERE { ?x rdf:type :temp . ?x rdf:type <c> }``
 counts                 the same patterns under ``COUNT`` / ``GROUP BY``
=====================  =====================================================

:class:`SparqlFacetEngine` implements exactly that: every model
operation issues a generated SPARQL query against an endpoint — no
direct index access.  The queries are the table's, verbatim; what makes
``?x rdf:type :temp`` true is not a write into the user's graph but a
read-only :class:`~repro.rdf.overlay.ExtensionView` of it, passed to
the endpoint as the query's ``overlay``.  The engine exists (a) as the
*alternative implementation* the dissertation discusses (Fig. 8.3), and
(b) as the cross-check that the native engine implements the same
semantics (the test suite runs both and compares).
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace, RDF, SCHEMA_PREDICATES
from repro.rdf.overlay import ExtensionView
from repro.rdf.terms import IRI, Term
from repro.endpoint import LocalEndpoint
from repro.hifun.translator import path_patterns
from repro.facets.model import (
    Path,
    PropertyFacet,
    PropertyRef,
    ValueMarker,
)

APP = Namespace("http://www.ics.forth.gr/rdf-analytics#")
TEMP = APP.temp

#: An operation's extension: the members, or a ready view of them
#: (a session passes its memoized one, whose result cache then carries
#: over from call to call).
Extension = Union[Iterable[Term], ExtensionView]


class SparqlFacetEngine:
    """Facet computation by SPARQL queries only (Table 5.2).

    The engine owns an endpoint over the (closed) graph.  Each
    operation evaluates its queries over a view of the graph in which
    the current extension is typed under the ``temp`` class (Table
    5.1); the graph itself is never written.
    """

    def __init__(self, graph: Graph, endpoint: Optional[LocalEndpoint] = None):
        self.graph = graph
        self.endpoint = endpoint if endpoint is not None else LocalEndpoint(graph)

    def view(self, extension: Extension) -> ExtensionView:
        """The graph with ``extension`` typed under ``temp``."""
        if isinstance(extension, ExtensionView):
            return extension
        return ExtensionView(self.graph, TEMP, extension)

    # ------------------------------------------------------------------
    # Table 5.1 notations as SPARQL text
    # ------------------------------------------------------------------
    @staticmethod
    def q_instances(cls: IRI) -> str:
        return f"SELECT ?x WHERE {{ ?x {RDF.type.n3()} {cls.n3()} }}"

    @staticmethod
    def q_extension() -> str:
        return f"SELECT ?x WHERE {{ ?x {RDF.type.n3()} {TEMP.n3()} }}"

    @staticmethod
    def _chain(path: Path, start: str = "?x") -> Tuple[str, str]:
        """Triple patterns walking ``path`` from ``start``; returns
        (patterns text, final variable)."""
        names = count(1)
        lines, last = path_patterns(path, start, lambda: f"?v{next(names)}")
        return (" ".join(lines), last)

    @classmethod
    def q_joins(cls, path: Path) -> str:
        patterns, var = cls._chain(path)
        return (
            f"SELECT DISTINCT {var} WHERE "
            f"{{ ?x {RDF.type.n3()} {TEMP.n3()} . {patterns} }}"
        )

    @classmethod
    def q_restrict_value(cls, path: Path, value: Term) -> str:
        patterns, var = cls._chain(path)
        return (
            f"SELECT DISTINCT ?x WHERE "
            f"{{ ?x {RDF.type.n3()} {TEMP.n3()} . {patterns} "
            f"FILTER({var} = {value.n3()}) }}"
        )

    @classmethod
    def q_restrict_class(cls, klass: IRI) -> str:
        return (
            f"SELECT ?x WHERE {{ ?x {RDF.type.n3()} {TEMP.n3()} . "
            f"?x {RDF.type.n3()} {klass.n3()} }}"
        )

    @classmethod
    def q_value_counts(cls, path: Path) -> str:
        """Values of a facet with their counts, one query (Table 5.2)."""
        patterns, var = cls._chain(path)
        return (
            f"SELECT {var} (COUNT(DISTINCT ?x) AS ?count) WHERE "
            f"{{ ?x {RDF.type.n3()} {TEMP.n3()} . {patterns} }} "
            f"GROUP BY {var}"
        )

    @classmethod
    def q_class_counts(cls) -> str:
        return (
            f"SELECT ?cls (COUNT(?x) AS ?count) WHERE "
            f"{{ ?x {RDF.type.n3()} {TEMP.n3()} . ?x {RDF.type.n3()} ?cls }} "
            f"GROUP BY ?cls"
        )

    @classmethod
    def q_properties(cls) -> str:
        return (
            f"SELECT DISTINCT ?p WHERE "
            f"{{ ?x {RDF.type.n3()} {TEMP.n3()} . ?x ?p ?o }}"
        )

    # ------------------------------------------------------------------
    # Model operations, evaluated purely through SPARQL
    # ------------------------------------------------------------------
    def instances(self, cls: IRI) -> Set[Term]:
        result = self.endpoint.query(self.q_instances(cls))
        return {row["x"] for row in result}

    def extension_of_temp(self, extension: Extension) -> Set[Term]:
        result = self.endpoint.query(
            self.q_extension(), overlay=self.view(extension))
        return {row["x"] for row in result}

    def joins(self, extension: Extension, path: Path) -> Set[Term]:
        result = self.endpoint.query(
            self.q_joins(path), overlay=self.view(extension))
        return {row.get("v" + str(len(path))) for row in result}

    def restrict(self, extension: Extension, path: Path, value: Term) -> Set[Term]:
        result = self.endpoint.query(
            self.q_restrict_value(path, value), overlay=self.view(extension))
        return {row["x"] for row in result}

    def restrict_to_class(self, extension: Extension, cls: IRI) -> Set[Term]:
        result = self.endpoint.query(
            self.q_restrict_class(cls), overlay=self.view(extension))
        return {row["x"] for row in result}

    def class_counts(self, extension: Extension) -> Dict[IRI, int]:
        result = self.endpoint.query(
            self.q_class_counts(), overlay=self.view(extension))
        counts: Dict[IRI, int] = {}
        for row in result:
            cls = row["cls"]
            if cls == TEMP or not isinstance(cls, IRI):
                continue
            counts[cls] = int(row.value("count"))
        return counts

    def facet(self, extension: Extension, path: Path) -> PropertyFacet:
        """A property facet with counts, via one grouped SPARQL query.

        Note the count semantics: for multi-step paths the native engine
        counts predecessors at the *previous* path position, while one
        grouped query can only count extension objects; both coincide
        for single-step facets (the common case in the UI's left frame).
        """
        view = self.view(extension)
        result = self.endpoint.query(self.q_value_counts(path), overlay=view)
        values = []
        total_query = (
            f"SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE "
            f"{{ ?x {RDF.type.n3()} {TEMP.n3()} . "
            f"{self._chain(path)[0]} }}"
        )
        for row in result.sorted_rows():
            value = row.get("v" + str(len(path)))
            values.append(ValueMarker(value, int(row.value("count"))))
        total = self.endpoint.query(total_query, overlay=view)
        count = int(total[0].value("n")) if len(total) else 0
        return PropertyFacet(path=tuple(path), count=count, values=tuple(values))

    def applicable_properties(self, extension: Extension) -> List[PropertyRef]:
        result = self.endpoint.query(
            self.q_properties(), overlay=self.view(extension))
        return sorted(
            (
                PropertyRef(row["p"])
                for row in result
                if isinstance(row["p"], IRI) and row["p"] not in SCHEMA_PREDICATES
            ),
            key=lambda r: r.prop.sort_key(),
        )

    def all_facets(self, extension: Extension) -> List[PropertyFacet]:
        """Every applicable property's facet over ONE view.

        The whole left-frame listing — property discovery plus two
        queries per property — shares a single view of the extension
        (built once, however many properties there are): the
        SPARQL-side analogue of the native session's shared-scan
        ``all_facets``."""
        view = self.view(extension)
        return [
            self.facet(view, (ref,))
            for ref in self.applicable_properties(view)
        ]
