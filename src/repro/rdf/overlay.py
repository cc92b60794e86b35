"""A read-only extension overlay on a triple store.

The paper's pipeline (Table 5.1) roots every query of an interaction at
``?x rdf:type :temp`` — "the current extension, stored in a temporary
class".  :class:`ExtensionView` makes that pattern true without storing
anything, so the store's generation, statistics and every cache stamped
with them survive the read.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Optional, Set, Union

from repro.caching import GenerationCache
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import IRI, Literal, Term, Triple

_RDF_TYPE = RDF.type


class ReadOnlyViewError(TypeError):
    """Raised on an attempt to mutate a store through a view of it."""


def _distinct(terms: Iterable[Term]) -> Iterator[Term]:
    seen = set()
    for term in terms:
        if term not in seen:
            seen.add(term)
            yield term


class ExtensionView:
    """``base ∪ {(x, rdf:type, cls) | x ∈ extension}``, read-only —
    through the accessors the SPARQL evaluator uses, over a flat
    :class:`~repro.rdf.graph.Graph` and a
    :class:`~repro.rdf.sharding.ShardedGraph` alike.

    Literal members are skipped (a literal cannot be a subject), and a
    member the base already types under ``cls`` contributes nothing, so
    the union never holds a triple twice and ``count`` stays exact —
    the join planner picks the same order it would on a store with the
    triples really added.

    A view describes the base *as of the generation it was built at*:
    after a mutation of the base, build a new one.  Its result cache is
    its own — an answer depends on the members, so it must never be
    shared through the base's cache with another extension under the
    same query text — and is stamped with the base's generation like
    every other cache.
    """

    __slots__ = ("base", "cls", "members", "sparql_cache")

    def __init__(self, base: Graph, cls: IRI, extension: Iterable[Term]):
        self.base = base
        self.cls = cls
        members = frozenset(
            x for x in extension if not isinstance(x, Literal))
        if base.count(None, _RDF_TYPE, cls):
            members = frozenset(
                x for x in members if (x, _RDF_TYPE, cls) not in base)
        #: The subjects of the virtual triples.
        self.members = members
        self.sparql_cache = GenerationCache(maxsize=128, name="sparql-results")

    @property
    def generation(self) -> int:
        return self.base.generation

    def _sees(self, p: Optional[Term], o: Optional[Term]) -> bool:
        """Can a pattern with this predicate/object (``None`` = free)
        match a virtual triple at all?"""
        return ((p is None or p == _RDF_TYPE)
                and (o is None or o == self.cls))

    def store_for(self, p: Optional[Term],
                  o: Optional[Term]) -> Union[Graph, "ExtensionView"]:
        """The store to match a triple pattern with *constant*
        predicate ``p`` / object ``o`` against: the base itself when the
        constants rule the virtual triples out.  The evaluator asks once
        per pattern, so the per-solution lookups of every other pattern
        run on the store directly."""
        return self if self._sees(p, o) else self.base

    # ------------------------------------------------------------------
    # The accessors of the SPARQL evaluator
    # ------------------------------------------------------------------
    def triples(self, s: Optional[Term] = None, p: Optional[Term] = None,
                o: Optional[Term] = None) -> Iterator[Triple]:
        matched = self.base.triples(s, p, o)
        if not self._sees(p, o):
            return matched
        if s is None:
            cls = self.cls
            return chain(matched, ((x, _RDF_TYPE, cls) for x in self.members))
        if s in self.members:
            return chain(matched, ((s, _RDF_TYPE, self.cls),))
        return matched

    def __contains__(self, t: Triple) -> bool:
        s, p, o = t
        if s in self.members and p == _RDF_TYPE and o == self.cls:
            return True
        return t in self.base

    def count(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> int:
        n = self.base.count(s, p, o)
        if self._sees(p, o):
            n += len(self.members) if s is None else int(s in self.members)
        return n

    def __len__(self) -> int:
        return len(self.base) + len(self.members)

    def subjects(self, p: Optional[Term] = None,
                 o: Optional[Term] = None) -> Iterator[Term]:
        if not self._sees(p, o):
            return self.base.subjects(p, o)
        return _distinct(t[0] for t in self.triples(None, p, o))

    def objects(self, s: Optional[Term] = None,
                p: Optional[Term] = None) -> Iterator[Term]:
        if not self._sees(p, None):
            return self.base.objects(s, p)
        return _distinct(t[2] for t in self.triples(s, p, None))

    def all_subjects(self) -> Set[Term]:
        return self.base.all_subjects() | self.members

    def all_objects(self) -> Set[Term]:
        objects = self.base.all_objects()
        if self.members:
            objects.add(self.cls)
        return objects

    # ------------------------------------------------------------------
    def add(self, s: Term, p: Term, o: Term) -> bool:
        raise ReadOnlyViewError("an extension view is read-only; "
                                "mutate its base store and build a new view")

    remove = add

    def __repr__(self) -> str:
        return (f"<ExtensionView {len(self.members)} × {self.cls.n3()} "
                f"over {self.base!r}>")


__all__ = ["ExtensionView", "ReadOnlyViewError"]
