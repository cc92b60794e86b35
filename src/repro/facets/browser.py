"""Resource browsing — the first access method of §1.2/§2.2.

Plain users can *"browse such graphs: start from a resource, inspect
its values and move to a connected resource, and so on, or even decide
to move to the more similar resources"*.  :class:`ResourceBrowser`
implements exactly that session:

* :meth:`view` — the current resource's card: its types, outgoing
  property/value pairs and incoming links;
* :meth:`follow` — move along an edge to a neighbour (history kept,
  :meth:`back` returns);
* :meth:`similar` — the most similar resources, ranked by the Jaccard
  similarity of their outgoing (property, value) sets — the
  "move to the more similar resources" affordance;
* :meth:`to_faceted_session` — hand the current neighbourhood over to
  faceted search, the dissertation's seamless transition between access
  methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, SCHEMA_PREDICATES
from repro.rdf.terms import BNode, IRI, Term, display_name
from repro.facets.analytics import FacetedAnalyticsSession


@dataclass(frozen=True)
class ResourceCard:
    """Everything shown when inspecting one resource."""

    resource: Term
    types: Tuple[IRI, ...]
    outgoing: Tuple[Tuple[IRI, Term], ...]
    incoming: Tuple[Tuple[Term, IRI], ...]

    @property
    def label(self) -> str:
        return display_name(self.resource)

    def neighbours(self) -> List[Term]:
        """The connected resources one can move to."""
        out: List[Term] = []
        for _, value in self.outgoing:
            if isinstance(value, (IRI, BNode)) and value not in out:
                out.append(value)
        for source, _ in self.incoming:
            if source not in out:
                out.append(source)
        return out


@dataclass(frozen=True)
class SimilarResource:
    resource: Term
    similarity: float
    shared: int

    @property
    def label(self) -> str:
        return display_name(self.resource)


class ResourceBrowser:
    """A browsing session over an RDF graph."""

    def __init__(self, graph: Graph, start: Term):
        self.graph = graph
        self._history: List[Term] = [start]

    @property
    def current(self) -> Term:
        return self._history[-1]

    def view(self, resource: Optional[Term] = None) -> ResourceCard:
        """The card of ``resource`` (default: the current one)."""
        node = resource if resource is not None else self.current
        types = tuple(
            sorted(
                (t for t in self.graph.objects(node, RDF.type)
                 if isinstance(t, IRI)),
                key=lambda t: t.sort_key(),
            )
        )
        outgoing = tuple(
            sorted(
                (
                    (p, o)
                    for _, p, o in self.graph.triples(node, None, None)
                    if p not in SCHEMA_PREDICATES
                ),
                key=lambda po: (po[0].sort_key(), po[1].sort_key()),
            )
        )
        incoming = tuple(
            sorted(
                (
                    (s, p)
                    for s, p, _ in self.graph.triples(None, None, node)
                    if p not in SCHEMA_PREDICATES
                ),
                key=lambda sp: (sp[0].sort_key(), sp[1].sort_key()),
            )
        )
        return ResourceCard(node, types, outgoing, incoming)

    def follow(self, target: Term) -> ResourceCard:
        """Move to a connected resource (it must be a neighbour)."""
        card = self.view()
        if target not in card.neighbours():
            raise ValueError(
                f"{target!r} is not connected to {card.label}"
            )
        self._history.append(target)
        return self.view()

    def back(self) -> ResourceCard:
        if len(self._history) > 1:
            self._history.pop()
        return self.view()

    def history(self) -> List[Term]:
        return list(self._history)

    # ------------------------------------------------------------------
    def _signature(self, node: Term) -> Set[Tuple[IRI, Term]]:
        return {
            (p, o)
            for _, p, o in self.graph.triples(node, None, None)
            if p not in SCHEMA_PREDICATES
        }

    def similar(self, limit: int = 5) -> List[SimilarResource]:
        """The resources most similar to the current one, by Jaccard
        similarity of outgoing (property, value) sets, restricted to
        resources sharing at least one type (like compares with like)."""
        me = self.current
        mine = self._signature(me)
        my_types = set(self.graph.objects(me, RDF.type))
        if my_types:
            candidates: Set[Term] = set()
            for t in my_types:
                candidates |= set(self.graph.subjects(RDF.type, t))
        else:
            candidates = set(self.graph.all_subjects())
        candidates.discard(me)
        scored: List[SimilarResource] = []
        for candidate in candidates:
            theirs = self._signature(candidate)
            union = mine | theirs
            if not union:
                continue
            shared = len(mine & theirs)
            if shared == 0:
                continue
            scored.append(
                SimilarResource(candidate, shared / len(union), shared)
            )
        scored.sort(key=lambda s: (-s.similarity, s.resource.sort_key()))
        return scored[:limit]

    def to_faceted_session(self, include_self: bool = True) -> FacetedAnalyticsSession:
        """Open a faceted session over the current neighbourhood —
        the seamless browse → explore transition."""
        seeds = set(self.view().neighbours())
        if include_self:
            seeds.add(self.current)
        return FacetedAnalyticsSession(self.graph, results=seeds)
