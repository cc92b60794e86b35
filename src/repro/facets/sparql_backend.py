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
*alternative implementation* the dissertation discusses (Fig. 8.3; an
analytics session given an ``endpoint`` counts here), and (b) as the
cross-check that the native engine implements the same semantics (the
test suite runs both and compares).

An endpoint can fail; the session's count operations
(:meth:`SparqlFacetEngine.counted`, the listing among them) degrade
explicitly instead: a failed operation is served the last value the
*same* operation gave, flagged ``approximate``; a facet never served is
named in :attr:`FacetListing.errors`; and each absorbed failure is a
:class:`DegradationEvent` in :attr:`SparqlFacetEngine.incidents`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, SCHEMA_PREDICATES, TEMP
from repro.rdf.overlay import ExtensionView
from repro.rdf.terms import IRI, Term
from repro.endpoint import EndpointError, LocalEndpoint
from repro.hifun.translator import path_patterns
from repro.facets.model import (
    ClassMarker,
    FacetError,
    FacetListing,
    Path,
    PropertyFacet,
    PropertyRef,
    ValueMarker,
)

#: An operation's extension: the members, or a ready view of them (a
#: session passes the one remembered on its state, so the queries of a
#: screen share one view instead of building one each).
Extension = Union[Iterable[Term], ExtensionView]


@dataclass(frozen=True)
class DegradationEvent:
    """One endpoint failure the engine absorbed instead of raising:
    ``stale`` if an earlier value was served flagged approximate, else
    the operation was dropped (empty fallback / listing error entry)."""

    operation: str
    error: EndpointError
    stale: bool

    def __str__(self):
        how = "served stale" if self.stale else "dropped"
        return f"{self.operation} [{how}]: {type(self.error).__name__}: {self.error}"


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
        #: Every endpoint failure a degrading operation absorbed.
        self.incidents: List[DegradationEvent] = []
        # The last value each degrading operation served, by operation.
        self._last: Dict[object, object] = {}

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

    @classmethod
    def q_inverse_properties(cls) -> str:
        """The properties reaching the extension: its ``p⁻¹`` facets."""
        return (
            f"SELECT DISTINCT ?p WHERE "
            f"{{ ?x {RDF.type.n3()} {TEMP.n3()} . ?s ?p ?x }}"
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

    def applicable_properties(self, extension: Extension,
                              include_inverse: bool = False) -> List[PropertyRef]:
        """The properties with a value on the extension — and, with
        ``include_inverse``, those reaching it — ordered like the native
        session's: by property, a forward step before its inverse."""
        view = self.view(extension)
        probes = [(self.q_properties(), False)]
        if include_inverse:
            probes.append((self.q_inverse_properties(), True))
        found = {
            PropertyRef(row["p"], inverse=inverse)
            for text, inverse in probes
            for row in self.endpoint.query(text, overlay=view)
            if isinstance(row["p"], IRI) and row["p"] not in SCHEMA_PREDICATES
        }
        return sorted(found, key=lambda r: (r.prop.sort_key(), r.inverse))

    # ------------------------------------------------------------------
    # Degrading operations: what a session counts through an endpoint
    # ------------------------------------------------------------------
    def counted(self, key: Tuple[str, Any], view: ExtensionView,
                class_tree: Callable) -> Any:
        """A session's count operation over ``view``, by its memo key:
        ``("classes", expanded)`` — the markers ``class_tree`` builds
        from one grouped count query —, ``("props", include_inverse)``,
        ``("listing", include_inverse)`` or ``("facet", path)``.

        Never raises an endpoint error: a failure is served stale, or
        degrades to no markers, no properties, an empty ``approximate``
        facet, or a listing error."""
        kind, arg = key
        if kind == "listing":
            return self.all_facets(view, arg)
        if kind == "facet":
            return self._remote_facet(view, arg, lambda exc: PropertyFacet(
                path=arg, count=0, values=(), approximate=True))
        if kind == "props":
            return self._remote_properties(view, arg, lambda exc: ())

        def markers():
            counts = self.class_counts(view)
            return class_tree(lambda cls: counts.get(cls, 0), arg)

        return self._remote(key, "class_markers", markers, lambda exc: (),
                            lambda last: tuple(map(_approximate, last)))

    def all_facets(self, extension: Extension,
                   include_inverse: bool = False) -> FacetListing:
        """Every applicable property's facet over ONE view: the
        left-frame listing, possibly partial.

        Discovery plus two queries per property share a single view of
        the extension (built once, however many properties there are):
        the SPARQL-side analogue of the native session's shared-scan
        ``all_facets``.  Each facet keeps its own degradation story:
        served stale when an earlier value exists, named in ``errors``
        otherwise; a discovery with nothing to fall back on is the
        listing's one error."""
        view = self.view(extension)
        refs = self._remote_properties(
            view, include_inverse, lambda exc: FacetError("listing", exc))
        if isinstance(refs, FacetError):
            return FacetListing((), (refs,))
        facets: List[PropertyFacet] = []
        errors: List[FacetError] = []
        for ref in refs:
            facet = self._remote_facet(
                view, (ref,), lambda exc: FacetError(f"by {ref.name}", exc))
            (errors if isinstance(facet, FacetError) else facets).append(facet)
        return FacetListing(tuple(facets), tuple(errors))

    def _remote_properties(self, view, include_inverse, fallback):
        return self._remote(
            ("props", include_inverse), "applicable_properties",
            lambda: self.applicable_properties(view, include_inverse),
            fallback)

    def _remote_facet(self, view, path, fallback):
        return self._remote(
            ("facet", path), "facet " + "/".join(step.name for step in path),
            lambda: self.facet(view, path), fallback,
            lambda facet: replace(facet, approximate=True))

    def _remote(self, key, label, compute, fallback,
                mark_stale=lambda value: value):
        """``compute()``, or its degraded substitute on a typed endpoint
        failure: the last value of the operation ``key`` through
        ``mark_stale`` when there is one, ``fallback(error)`` otherwise.
        Either way the failure lands in :attr:`incidents` under
        ``label``."""
        try:
            value = compute()
        except EndpointError as exc:
            stale = key in self._last
            self.incidents.append(DegradationEvent(label, exc, stale))
            return mark_stale(self._last[key]) if stale else fallback(exc)
        self._last[key] = value
        return value

    def health(self) -> dict:
        """The endpoint's counters plus the degradation record."""
        report = self.endpoint.report()
        report["incidents"] = len(self.incidents)
        report["stale_serves"] = sum(1 for e in self.incidents if e.stale)
        report["dropped"] = sum(1 for e in self.incidents if not e.stale)
        return report


def _approximate(marker: ClassMarker) -> ClassMarker:
    return replace(marker, approximate=True,
                   children=tuple(map(_approximate, marker.children)))
