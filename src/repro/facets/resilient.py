"""A faceted-analytics session that survives endpoint failures.

:class:`ResilientFacetedSession` is the endpoint-backed variant of the
session (the Fig. 8.3 alternative implementation made operational):
facet *counts and listings* are computed by the
:class:`~repro.facets.sparql_backend.SparqlFacetEngine` through a
:class:`~repro.endpoint.ResilientEndpoint` (deadlines, retries with
backoff, circuit breaker), while the interaction *state machinery* —
extensions, intentions, history, back — stays client-side, exactly the
split a web UI over a public SPARQL endpoint has.

The point of the class is what happens when a count query fails even
after retries: the interaction must keep responding.  Degradation is
explicit, never silent:

* a failed listing/facet is served from the last successful value for
  the same operation, flagged ``approximate=True`` (stale counts);
* a facet that has never succeeded is dropped from the listing and
  surfaced in :attr:`FacetListing.errors` instead (partial listing);
* every degradation is appended to :attr:`incidents` as a
  :class:`DegradationEvent` carrying the typed endpoint error.

Transitions themselves (``select_class``, ``select_value``, ...) never
raise endpoint errors — the session always reaches a consistent state.
Clicking a *stale* marker may hit an empty result, which surfaces as
the model's usual :class:`~repro.facets.session.EmptyTransitionError`
with the state unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.rdf.graph import Graph
from repro.rdf.terms import Term
from repro.endpoint import (
    CircuitBreakerPolicy,
    EndpointError,
    FaultModel,
    FlakyEndpointSimulator,
    LocalEndpoint,
    NetworkModel,
    ResilientEndpoint,
    RetryPolicy,
)
from repro.facets.analytics import AnswerFrame, FacetedAnalyticsSession
from repro.facets.model import (
    ClassMarker,
    FacetError,
    FacetListing,
    PropertyFacet,
    PropertyRef,
)
from repro.facets.sparql_backend import SparqlFacetEngine

_MISSING = object()
_DEFAULT_BREAKER = object()


@dataclass(frozen=True)
class DegradationEvent:
    """One endpoint failure the session absorbed instead of crashing.

    ``stale`` tells how it was absorbed: ``True`` means a cached value
    was served flagged approximate, ``False`` means the operation was
    dropped (empty fallback / listing error entry).
    """

    operation: str
    error: EndpointError
    stale: bool

    def __str__(self):
        how = "served stale" if self.stale else "dropped"
        return f"{self.operation} [{how}]: {type(self.error).__name__}: {self.error}"


class ResilientFacetedSession(FacetedAnalyticsSession):
    """Faceted analytics whose counts come from a fallible endpoint.

    ``endpoint_factory`` builds the raw endpoint over the session's
    (closed) graph — defaults to an in-process
    :class:`~repro.endpoint.LocalEndpoint`; pass e.g.
    ``lambda g: FlakyEndpointSimulator(g, faults=FaultModel.uniform(0.2))``
    for chaos runs, or use the ``network``/``faults`` shortcuts.  The
    raw endpoint is wrapped in a :class:`ResilientEndpoint` configured
    by ``retry`` / ``timeout`` / ``breaker`` / ``seed``.

    ``think_seconds`` is the virtual user think time charged between
    transitions; it is what lets an open circuit reach its recovery
    window inside a no-sleep simulation.
    """

    def __init__(
        self,
        graph: Graph,
        results: Optional[Iterable[Term]] = None,
        closed: bool = False,
        endpoint_factory: Optional[Callable[[Graph], object]] = None,
        network: Optional[NetworkModel] = None,
        faults: Optional[FaultModel] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
        breaker: Any = _DEFAULT_BREAKER,
        seed: int = 0,
        think_seconds: float = 2.0,
        analyze: bool = False,
    ):
        super().__init__(graph, results=results, closed=closed, analyze=analyze)
        if endpoint_factory is None:
            if network is not None or faults is not None:
                endpoint_factory = lambda g: FlakyEndpointSimulator(
                    g, network, faults, seed=seed)
            else:
                endpoint_factory = LocalEndpoint
        raw = endpoint_factory(self.graph)
        if breaker is _DEFAULT_BREAKER:
            breaker = CircuitBreakerPolicy()
        self.endpoint = ResilientEndpoint(
            raw, retry=retry, timeout=timeout, breaker=breaker, seed=seed)
        self._engine = SparqlFacetEngine(self.graph, self.endpoint)
        self.think_seconds = think_seconds
        self._cache: Dict[object, object] = {}
        self.incidents: List[DegradationEvent] = []

    # ------------------------------------------------------------------
    # Degradation plumbing
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Did any served value ever come from degradation?"""
        return bool(self.incidents)

    def health(self) -> dict:
        """Endpoint counters plus the session's degradation record."""
        report = self.endpoint.report()
        report["incidents"] = len(self.incidents)
        report["stale_serves"] = sum(1 for e in self.incidents if e.stale)
        report["dropped"] = sum(1 for e in self.incidents if not e.stale)
        return report

    def _remote(self, op, label, compute, fallback, mark_stale):
        """Run ``compute`` against the endpoint with explicit degradation.

        Success refreshes the per-operation cache.  On a typed endpoint
        failure the last successful value for the *same operation* is
        served through ``mark_stale`` (flagging it approximate); with no
        cache, ``fallback`` produces the degraded empty answer.  Either
        way the failure lands in :attr:`incidents` under ``label``.
        """
        try:
            value = compute()
        except EndpointError as exc:
            cached = self._cache.get(op, _MISSING)
            if cached is not _MISSING:
                self.incidents.append(DegradationEvent(label, exc, stale=True))
                return mark_stale(cached)
            self.incidents.append(DegradationEvent(label, exc, stale=False))
            return fallback(exc)
        self._cache[op] = value
        return value

    # ------------------------------------------------------------------
    # Left frame: classes and facets, endpoint-backed
    # ------------------------------------------------------------------
    def class_markers(self, expanded: bool = False) -> List[ClassMarker]:
        """Class markers via one grouped count query (Table 5.2)."""
        def compute():
            counts = self._engine.class_counts(self._extension_view())
            return list(self._class_tree(
                lambda cls: counts.get(cls, 0), expanded))

        return self._remote(
            ("classes", expanded), "class_markers", compute,
            fallback=lambda exc: [],
            mark_stale=lambda markers: [_approximate_marker(m) for m in markers],
        )

    def applicable_properties(self, include_inverse: bool = False) -> List[PropertyRef]:
        """Applicable properties via the engine's one-query listing.

        Inverse properties are not discoverable through the forward
        ``?x ?p ?o`` probe a remote endpoint answers, so
        ``include_inverse`` is accepted for interface compatibility but
        has no effect here.
        """
        return self._remote(
            "properties", "applicable_properties",
            lambda: self._engine.applicable_properties(self._extension_view()),
            fallback=lambda exc: [],
            mark_stale=lambda refs: list(refs),
        )

    def facet(self, path) -> PropertyFacet:
        """One facet with counts via the engine (2 queries); degrades to
        the last successful facet for the same path, flagged stale."""
        path = self._normalize_path(path)
        return self._remote_facet(path, lambda exc: PropertyFacet(
            path=path, count=0, values=(), approximate=True))

    def _remote_facet(self, path, fallback):
        """The facet at ``path`` through :meth:`_remote`; ``fallback``
        says what a facet that never succeeded degrades to."""
        return self._remote(
            ("facet", path), "facet " + "/".join(step.name for step in path),
            lambda: self._engine.facet(self._extension_view(), path),
            fallback=fallback,
            mark_stale=lambda facet: replace(facet, approximate=True),
        )

    def all_facets(self, include_inverse: bool = False) -> FacetListing:
        """The left-frame facet listing (:meth:`property_facets` is
        this), possibly partial.

        The native shared scan reads the local indexes, which an
        endpoint-backed session must not do — counts here come from the
        (fallible) endpoint one facet at a time, so each facet keeps its
        *individual* degradation story: served stale (flagged
        ``approximate``) when a previous value exists, and otherwise
        reported in the listing's ``errors`` — the interaction never
        crashes over a lost facet.
        """
        refs = self.applicable_properties(include_inverse)
        if not refs and self.incidents:
            # Did the discovery query itself just fail with no cache to
            # fall back on?  Surface that instead of an empty listing.
            last = self.incidents[-1]
            if last.operation == "applicable_properties" and not last.stale:
                return FacetListing(
                    (), (FacetError("listing", last.error),))
        facets: List[PropertyFacet] = []
        errors: List[FacetError] = []
        for ref in refs:
            facet = self._remote_facet(
                (ref,), lambda exc: FacetError(f"by {ref.name}", exc))
            (errors if isinstance(facet, FacetError) else facets).append(facet)
        return FacetListing(tuple(facets), tuple(errors))

    # ------------------------------------------------------------------
    # Transitions: native state machinery + virtual think time
    # ------------------------------------------------------------------
    def _push(self, ids, intention, description):
        state = super()._push(ids, intention, description)
        self.endpoint.advance(self.think_seconds)
        return state

    def back(self):
        self.endpoint.advance(self.think_seconds)
        return super().back()

    # ------------------------------------------------------------------
    # Analytics through the resilient endpoint
    # ------------------------------------------------------------------
    def run(self, engine: str = "sparql") -> AnswerFrame:
        """Execute the analytic query; the ``"sparql"`` and
        ``"restrictions"`` engines go through the resilient endpoint.

        Unlike facet counts, an analytic answer has no meaningful stale
        substitute, so endpoint failures surface as typed
        :class:`~repro.endpoint.EndpointError` subclasses — with the
        session state (and the user's graph) left fully consistent.
        """
        if engine in ("sparql", "restrictions"):
            return super().run(engine, endpoint=self.endpoint)
        return super().run(engine)


def _approximate_marker(marker: ClassMarker) -> ClassMarker:
    return replace(
        marker,
        approximate=True,
        children=tuple(_approximate_marker(c) for c in marker.children),
    )


__all__ = ["DegradationEvent", "ResilientFacetedSession"]
