"""RDFS inference and schema navigation.

:class:`RDFSClosure` materializes the RDFS entailments the dissertation
relies on (§2.1, §5.3.1):

* transitivity of ``rdfs:subClassOf`` and ``rdfs:subPropertyOf``;
* type propagation along ``rdfs:subClassOf``
  (``x rdf:type C``, ``C ⊑ D``  ⟹  ``x rdf:type D``);
* triple propagation along ``rdfs:subPropertyOf``
  (``x p y``, ``p ⊑ q``  ⟹  ``x q y``);
* domain/range typing (``x p y``, ``domain(p)=C``  ⟹  ``x rdf:type C``).

:class:`SchemaView` exposes the class/property hierarchies the faceted
interface needs: the classes and properties, maximal (top-level)
classes, direct sub/superclasses via the reflexive-transitive
*reduction* (§5.3.2), and instance sets under inference.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, TypeVar

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, RDFS, SCHEMA_PREDICATES
from repro.rdf.terms import IRI, Literal, Term

_TYPE = RDF.type
_SUBCLASS = RDFS.subClassOf
_SUBPROP = RDFS.subPropertyOf
_DOMAIN = RDFS.domain
_RANGE = RDFS.range
_CLASS = RDFS.Class
_PROPERTY = RDF.Property

_Node = TypeVar("_Node")


def _transitive_closure(edges: Dict[_Node, Set[_Node]]
                        ) -> Dict[_Node, Set[_Node]]:
    """All-pairs reachability, cycle-safe (iterates to a fixpoint): of
    dictionary ids in the closure, of terms in schema inference."""
    closure: Dict[_Node, Set[_Node]] = {
        node: set(successors) for node, successors in edges.items()
    }
    changed = True
    while changed:
        changed = False
        for node, reachable in closure.items():
            additions: Set[_Node] = set()
            for succ in reachable:
                additions |= closure.get(succ, set())
            before = len(reachable)
            reachable |= additions
            if len(reachable) != before:
                changed = True
    return closure


class RDFSClosure:
    """The RDFS closure ``C(K)`` of a graph ``K`` (§5.3.1).

    The closure is computed eagerly at construction and in id space: it
    starts from ``source.copy()`` (same ids, ``source`` is not written)
    and every pass reads POS rows and writes encoded triples — no triple
    is decoded.  :meth:`graph` returns the new :class:`Graph` containing
    the asserted plus the inferred triples.
    """

    def __init__(self, source: Graph):
        self._graph = self._materialize(source)

    @staticmethod
    def _materialize(source: Graph) -> Graph:
        g = source.copy()
        add, pos, decode = g._add_ids, g.pos_ids, g.dictionary.decode
        # The vocabulary is interned up front: ``g`` is ours to write.
        type_id, subclass_id, subprop_id, domain_id, range_id = map(
            g.dictionary.encode, (_TYPE, _SUBCLASS, _SUBPROP, _DOMAIN, _RANGE))

        def superiors(pi: int) -> Dict[int, Set[int]]:
            edges: Dict[int, Set[int]] = defaultdict(set)
            for oi, subjects in pos(pi).items():
                for si in subjects:
                    if si != oi:
                        edges[si].add(oi)
            return _transitive_closure(edges)

        superclasses = superiors(subclass_id)
        superproperties = superiors(subprop_id)
        # subClassOf / subPropertyOf transitivity
        for pi, closure in ((subclass_id, superclasses),
                            (subprop_id, superproperties)):
            for node, supers in closure.items():
                for sup in supers:
                    add(node, pi, sup)
        # The passes below write to ``g`` while they walk it, so each
        # walks a snapshot: of a property's rows, then of one row.
        # subPropertyOf triple propagation (do this before domain/range and
        # type propagation so inherited statements are typed as well).
        for prop, supers in superproperties.items():
            targets = [sup for sup in supers if isinstance(decode(sup), IRI)]
            for oi, subjects in list(pos(prop).items()):
                for si in tuple(subjects):
                    for sup in targets:
                        add(si, sup, oi)
        # domain / range typing
        for cls, props in list(pos(domain_id).items()):
            for prop in tuple(props):
                if isinstance(decode(prop), IRI):
                    for subjects in list(pos(prop).values()):
                        for si in tuple(subjects):
                            add(si, type_id, cls)
        for cls, props in list(pos(range_id).items()):
            for prop in tuple(props):
                if isinstance(decode(prop), IRI):
                    for oi in list(pos(prop)):
                        if not isinstance(decode(oi), Literal):
                            add(oi, type_id, cls)
        # rdf:type propagation along subClassOf
        for cls, supers in superclasses.items():
            for si in tuple(g.subjects_ids(type_id, cls)):
                for sup in supers:
                    add(si, type_id, sup)
        return g

    def graph(self) -> Graph:
        """The closed graph (asserted plus inferred triples)."""
        return self._graph


class SchemaView:
    """Schema navigation over a (closed) graph, as needed by faceted search.

    Provides the notation of §5.3.1: the set of classes ``C``, properties
    ``Pr``, relations ``≤cl`` and ``≤pr``, ``inst(c)``, the
    maximal elements, and the reflexive-transitive reduction used to lay
    out hierarchical facets.
    """

    def __init__(self, graph: Graph, closed: bool = False):
        """Unless ``closed``, the view works on a closed *copy* of
        ``graph`` (:class:`RDFSClosure`); ``graph`` itself is not written."""
        if closed:
            self.graph = graph
        else:
            self.graph = RDFSClosure(graph).graph()

    # -- classes -------------------------------------------------------
    def classes(self) -> Set[Term]:
        """All classes: declared, used in typing, or in subclass axioms."""
        graph = self.graph
        result: Set[Term] = set(graph.subjects(_TYPE, _CLASS))
        # The classes used in typing are the keys of the rdf:type POS
        # row — read without decoding a single type triple.
        type_id = graph.encode_term(_TYPE)
        if type_id is not None:
            result.update(graph.decode_ids(graph.pos_ids(type_id).keys()))
        result.update(graph.subjects(_SUBCLASS, None))
        result.update(graph.objects(None, _SUBCLASS))
        result.discard(_CLASS)
        result.discard(_PROPERTY)
        return {c for c in result if isinstance(c, IRI)}

    def instances(self, cls: Term) -> Set[Term]:
        """``inst(c)`` under the closure."""
        return set(self.graph.subjects(_TYPE, cls))

    def subclasses(self, cls: Term, direct: bool = False) -> Set[Term]:
        subs = set(self.graph.subjects(_SUBCLASS, cls))
        subs.discard(cls)
        if direct:
            subs = self._reduce(cls, subs, _SUBCLASS, up=False)
        return subs

    def superclasses(self, cls: Term, direct: bool = False) -> Set[Term]:
        sups = set(self.graph.objects(cls, _SUBCLASS))
        sups.discard(cls)
        if direct:
            sups = self._reduce(cls, sups, _SUBCLASS, up=True)
        return sups

    def maximal_classes(self) -> List[Term]:
        """Top-level classes: those with no strict superclass (§5.3.2)."""
        return sorted(
            (c for c in self.classes() if not self.superclasses(c)),
            key=lambda t: t.sort_key(),
        )

    # -- properties ----------------------------------------------------
    def properties(self) -> Set[Term]:
        """All properties: declared, used, or in subproperty/domain/range axioms."""
        result: Set[Term] = set(self.graph.subjects(_TYPE, _PROPERTY))
        result.update(self.graph.subjects(_SUBPROP, None))
        result.update(self.graph.objects(None, _SUBPROP))
        result.update(self.graph.subjects(_DOMAIN, None))
        result.update(self.graph.subjects(_RANGE, None))
        result.update(
            p for p in self.graph.all_predicates() if p not in SCHEMA_PREDICATES
        )
        return {p for p in result if isinstance(p, IRI)}

    def superproperties(self, prop: Term, direct: bool = False) -> Set[Term]:
        sups = set(self.graph.objects(prop, _SUBPROP))
        sups.discard(prop)
        if direct:
            sups = self._reduce(prop, sups, _SUBPROP, up=True)
        return sups

    def domain(self, prop: Term) -> Optional[Term]:
        return self.graph.value(prop, _DOMAIN, None)

    def range(self, prop: Term) -> Optional[Term]:
        return self.graph.value(prop, _RANGE, None)

    # -- hierarchy reduction -------------------------------------------
    def _reduce(self, start: Term, related: Set[Term], pred: IRI,
                up: bool) -> Set[Term]:
        """The members of ``related`` — all of ``start``'s subclasses
        (or sub-properties), or with ``up`` all its superclasses — that
        no other member lies between: the direct children, or parents."""
        graph = self.graph
        direct = set(related)
        for a in related:
            further = set(graph.subjects(pred, a) if up else graph.objects(a, pred))
            further.discard(a)
            further.discard(start)
            if further & related:
                direct.discard(a)
        return direct
