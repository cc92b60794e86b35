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
 counts                 ``SELECT k… (COUNT(DISTINCT ?n) AS ?count) WHERE { ?x rdf:type :temp . body } GROUP BY k…``
=====================  =====================================================

:class:`SparqlFacetEngine` implements exactly that: every model
operation issues a generated SPARQL query against an endpoint — no
direct index access.  Every count is the last row's shape
(:meth:`SparqlFacetEngine.q_counts`), ``?n`` the node one step before the
value (``?x`` for a direct facet; no literal is an inverse step's source).
The queries are the tables', verbatim; what makes
``?x rdf:type :temp`` true is not a write into the user's graph but a
read-only :class:`~repro.rdf.overlay.ExtensionView` of it, passed to
the endpoint as the query's ``overlay``.  The engine exists (a) as the
*alternative implementation* the dissertation discusses (Fig. 8.3; an
analytics session given an ``endpoint`` counts here), and (b) as the
cross-check that the native engine implements the same semantics (the
test suite runs both and compares).

An endpoint can fail; the session's three count operations
(:meth:`SparqlFacetEngine.counted`: class markers, the listing — whose
steps are also the state's applicable properties — and a facet)
degrade explicitly instead: a failed operation is served the last
value the *same* operation gave, flagged ``approximate``, or, never
served, its empty value; and each absorbed failure is recorded once,
as one :class:`DegradationEvent` in
:attr:`SparqlFacetEngine.incidents`.
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
    the operation was dropped (served its empty value)."""

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
    def _chain(path: Path) -> Tuple[str, str]:
        """Triple patterns walking ``path`` from ``?x`` through ``?v1``,
        ``?v2``, …; returns (patterns text, final variable)."""
        names = count(1)
        lines, last = path_patterns(path, "?x", lambda: f"?v{next(names)}")
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

    @staticmethod
    def q_counts(body: str, counted: str, keys: Tuple[str, ...] = ()) -> str:
        """Table 5.2's one count shape: the ``temp`` members joined with
        ``body``, ``COUNT(DISTINCT counted)`` grouped by ``keys`` (no
        key: one total)."""
        select = " ".join([*keys, f"(COUNT(DISTINCT {counted}) AS ?count)"])
        group = f" GROUP BY {' '.join(keys)}" if keys else ""
        return (f"SELECT {select} WHERE "
                f"{{ ?x {RDF.type.n3()} {TEMP.n3()} . {body} }}{group}")

    @classmethod
    def q_path_counts(cls, path: Path, grouped: bool = True) -> str:
        """Per value when ``grouped``, the nodes one step before the value
        of the facet at ``path``, as ``FacetedSession._count_last_step``
        counts them; a literal is the source of no inverse step."""
        patterns, var = cls._chain(path)
        sources = ["?x"] + [f"?v{i}" for i in range(1, len(path))]
        filters = [f"FILTER(!isLiteral({source}))"
                   for source, step in zip(sources[1:], path[1:]) if step.inverse]
        return cls.q_counts(" ".join([patterns, *filters]), sources[-1],
                            (var,) if grouped else ())

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
            self.q_counts(f"?x {RDF.type.n3()} ?cls .", "?x", ("?cls",)),
            overlay=self.view(extension))
        return {row["cls"]: int(row.value("count")) for row in result
                if row["cls"] != TEMP and isinstance(row["cls"], IRI)}

    def facet(self, extension: Extension, path: Path) -> PropertyFacet:
        """The facet at ``path``: its value counts and its total
        (:meth:`q_path_counts`)."""
        view = self.view(extension)
        values, total = (
            self.endpoint.query(self.q_path_counts(path, grouped), overlay=view)
            for grouped in (True, False))
        return PropertyFacet(
            path=tuple(path),
            count=int(total[0].value("count")) if len(total) else 0,
            values=_markers(values, f"v{len(path)}"))

    #: A listing's count-query body per direction: the members' outgoing
    #: edges, and the incoming ones of its ``p⁻¹`` facets.
    _BODIES = ("?x ?p ?v .", "?v ?p ?x .")

    def _by_step(self, view: ExtensionView, include_inverse: bool,
                 keys: Tuple[str, ...]) -> Dict[PropertyRef, list]:
        """The listing's count rows grouped by ``keys`` (``?p`` first), per
        property step, ordered as natively: by property, forward first."""
        found: Dict[Tuple[IRI, bool], list] = {}
        for inverse in (False, True)[:1 + include_inverse]:
            for row in self.endpoint.query(self.q_counts(
                    self._BODIES[inverse], "?x", keys), overlay=view):
                if isinstance(row["p"], IRI) and row["p"] not in SCHEMA_PREDICATES:
                    found.setdefault((row["p"], inverse), []).append(row)
        return {PropertyRef(prop, inverse=inverse): found[prop, inverse]
                for prop, inverse in sorted(
                    found, key=lambda slot: (slot[0].sort_key(), slot[1]))}

    # ------------------------------------------------------------------
    # Degrading operations: what a session counts through an endpoint
    # ------------------------------------------------------------------
    def counted(self, key: Tuple[str, Any], view: ExtensionView,
                class_tree: Callable) -> Any:
        """A session's count operation over ``view``, by its memo key:
        ``("classes", expanded)`` — the markers ``class_tree`` builds
        from one grouped count query —, ``("listing", include_inverse)``
        or ``("facet", path)``.

        Never raises an endpoint error: a failure is served stale, or
        degrades to no markers, no facets or an empty ``approximate``
        facet.  Each is served in the shape the native session
        remembers: a listing is its tuple of facets."""
        kind, arg = key
        if kind == "listing":
            return self._remote(
                key, "listing", lambda: self.all_facets(view, arg), (),
                lambda last: tuple(
                    replace(facet, approximate=True) for facet in last))
        if kind == "facet":
            return self._remote(
                key, "facet " + "/".join(step.name for step in arg),
                lambda: self.facet(view, arg),
                PropertyFacet(path=arg, count=0, values=(), approximate=True),
                lambda facet: replace(facet, approximate=True))

        def markers():
            counts = self.class_counts(view)
            return class_tree(lambda cls: counts.get(cls, 0), arg)

        return self._remote(key, "class_markers", markers, (),
                            lambda last: tuple(map(_approximate, last)))

    def all_facets(self, extension: Extension, include_inverse: bool = False
                   ) -> Tuple[PropertyFacet, ...]:
        """Every applicable property's facet: the left-frame listing,
        from two grouped count queries per direction over ONE view — the
        having-counts by ``?p``, the value counts by ``?p ?v``."""
        view = self.view(extension)
        having = self._by_step(view, include_inverse, ("?p",))
        values = self._by_step(view, include_inverse, ("?p", "?v"))
        return tuple(
            PropertyFacet(path=(ref,), count=int(row.value("count")),
                          values=_markers(values[ref], "v"))
            for ref, (row,) in having.items())

    def _remote(self, key, label, compute, fallback, mark_stale):
        """``compute()``, or its degraded substitute on a typed endpoint
        failure: the last value of the operation ``key`` through
        ``mark_stale`` when there is one, ``fallback`` otherwise.
        Either way the failure lands in :attr:`incidents` under
        ``label``."""
        try:
            value = compute()
        except EndpointError as exc:
            stale = key in self._last
            self.incidents.append(DegradationEvent(label, exc, stale))
            return mark_stale(self._last[key]) if stale else fallback
        self._last[key] = value
        return value

    def health(self) -> dict:
        """The endpoint's counters plus the degradation record."""
        report = self.endpoint.report()
        report["incidents"] = len(self.incidents)
        report["stale_serves"] = sum(1 for e in self.incidents if e.stale)
        report["dropped"] = sum(1 for e in self.incidents if not e.stale)
        return report


def _markers(rows: Iterable[Any], var: str) -> Tuple[ValueMarker, ...]:
    """The value markers of count rows binding ``var``, in value order."""
    return tuple(sorted(
        (ValueMarker(row[var], int(row.value("count"))) for row in rows),
        key=lambda marker: marker.value.sort_key()))


def _approximate(marker: ClassMarker) -> ClassMarker:
    return replace(marker, approximate=True,
                   children=tuple(map(_approximate, marker.children)))
