"""A read-only extension overlay on a triple store.

The paper's pipeline (Table 5.1) roots every query of an interaction at
``?x rdf:type :temp`` — "the current extension, stored in a temporary
class".  :class:`ExtensionView` makes that pattern true without storing
anything, so the store's generation, statistics and every cache stamped
with them survive the read.  It answers the id protocol the SPARQL
evaluator reads every store with (``triples_ids``, ``objects_ids``,
``subjects_ids``, ``count_ids``, ``len``, ``encode_term`` /
``decode_id``, ``column``) and nothing Term-level.  ``objects_ids`` answers a
collection — a one-tuple for a lone object, as
:class:`~repro.rdf.graph.Graph` does — which a caller iterates, sizes
or tests with ``in``, and combines only through method forms
(``.union``, ``.intersection``).

A view keeps the columns its star reads, and still no answers:
:func:`repro.sparql.query` caches only on the store, keyed by query
text alone, which two extensions share.  An analytics session
remembers each Answer Frame on the state it was computed for instead
(:meth:`repro.facets.analytics.FacetedAnalyticsSession.run`).
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import (AbstractSet, Callable, Collection, Dict, Iterable,
                    Iterator, List, Optional, Tuple, Union)

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import IRI, Literal, Term

_RDF_TYPE = RDF.type


class ReadOnlyViewError(TypeError):
    """Raised on an attempt to mutate a store through a view of it."""


class ExtensionView:
    """``base ∪ {(x, rdf:type, cls) | x ∈ extension}``, read-only —
    through the id protocol of the SPARQL evaluator (``triples_ids``,
    ``objects_ids``, ``subjects_ids``, ``count_ids``, ``len``), over a flat
    :class:`~repro.rdf.graph.Graph` and a
    :class:`~repro.rdf.sharding.ShardedGraph` alike.

    The members are held as ids: ``ids`` are the base's own (a session
    state's ``ids``, taken as they are), and a member given as a Term in
    ``extension`` is encoded.  A term the base's dictionary never saw —
    ``cls`` itself, as a rule, and a member no triple mentions — gets a
    *virtual* negative id, which :meth:`encode_term` / :meth:`decode_id`
    answer and the base matches nothing under.

    Literal members are skipped (a literal cannot be a subject), and a
    member the base already types under ``cls`` contributes nothing, so
    the union never holds a triple twice and ``count_ids`` stays exact —
    the join planner picks the same order it would on a store with the
    triples really added.

    A view describes the base *as of the generation it was built at*:
    after a mutation of the base, build a new one.
    """

    __slots__ = ("base", "cls", "members", "_decode", "_virtual",
                 "_virtual_ids", "_type_id", "_cls_id", "_columns")

    def __init__(self, base: Graph, cls: IRI, extension: Iterable[Term] = (),
                 ids: Iterable[int] = ()):
        self.base = base
        self.cls = cls
        self._columns: Dict[Tuple[int, ...], object] = {}
        self._virtual: List[Term] = []
        self._virtual_ids: Dict[Term, int] = {}
        self._type_id = self._intern(_RDF_TYPE)
        self._cls_id = self._intern(cls)
        self._decode = base.dictionary.decode
        members = base.resource_ids(
            ids if isinstance(ids, AbstractSet) else set(ids))
        members.update(self._intern(x) for x in extension
                       if not isinstance(x, Literal))
        members.difference_update(
            base.subjects_ids(self._type_id, self._cls_id))
        #: The subject ids of the virtual triples.
        self.members = frozenset(members)

    def _intern(self, term: Term) -> int:
        """The id of ``term``: the base's, else a virtual one."""
        ident = self.encode_term(term)
        if ident is None:
            ident = self._virtual_ids[term] = -1 - len(self._virtual)
            self._virtual.append(term)
        return ident

    @property
    def generation(self) -> int:
        return self.base.generation

    def encode_term(self, term: Term) -> Optional[int]:
        ident = self.base.encode_term(term)
        return self._virtual_ids.get(term) if ident is None else ident

    def decode_id(self, ident: int) -> Term:
        return self._virtual[-1 - ident] if ident < 0 else self._decode(ident)

    @property
    def dictionary(self):
        """The base's term dictionary: every id it issued means the same
        term here (the virtual ids are negative and not in it)."""
        return self.base.dictionary

    def store_for(self, pi: Optional[int],
                  oi: Optional[int]) -> Union[Graph, "ExtensionView"]:
        """The store to probe a triple pattern with *constant*
        predicate id ``pi`` / object id ``oi`` (``None`` = not a
        constant) against: the base itself when the constants rule the
        virtual triples out.  The evaluator asks once per pattern, so
        the per-row probes of every other pattern run on the store
        directly."""
        return self if self._sees(pi, oi) else self.base

    def _sees(self, pi: Optional[int], oi: Optional[int]) -> bool:
        """Can a pattern with this predicate/object id (``None`` = free)
        match a virtual triple at all?"""
        return ((pi is None or pi == self._type_id)
                and (oi is None or oi == self._cls_id))

    # ------------------------------------------------------------------
    # The read protocol of the SPARQL evaluator
    # ------------------------------------------------------------------
    def triples_ids(self, si: Optional[int] = None, pi: Optional[int] = None,
                    oi: Optional[int] = None) -> Iterator[Tuple[int, int, int]]:
        matched = self.base.triples_ids(si, pi, oi)
        if not self._sees(pi, oi):
            return matched
        if si is None:
            return chain(matched, zip(self.members, repeat(self._type_id),
                                      repeat(self._cls_id)))
        if si in self.members:
            return chain(matched, ((si, self._type_id, self._cls_id),))
        return matched

    def objects_ids(self, si: int, pi: int) -> Collection[int]:
        """The object ids of ``(si, pi, ?)``: the base's, and ``cls``
        too when the virtual triple ``(si, rdf:type, cls)`` is in the
        view."""
        objects = self.base.objects_ids(si, pi)
        if self._sees(pi, None) and si in self.members:
            return {self._cls_id}.union(objects)
        return objects

    def subjects_ids(self, pi: int, oi: int) -> AbstractSet[int]:
        """The subject ids of ``(?, pi, oi)``: the base's, and the
        members too when ``pi, oi`` are ``rdf:type``, ``cls``."""
        subjects = self.base.subjects_ids(pi, oi)
        if not self._sees(pi, oi):
            return subjects
        return self.members.union(subjects) if subjects else self.members

    def count_ids(self, si: Optional[int] = None, pi: Optional[int] = None,
                  oi: Optional[int] = None) -> int:
        n = self.base.count_ids(si, pi, oi)
        if self._sees(pi, oi):
            n += len(self.members) if si is None else int(si in self.members)
        return n

    def __len__(self) -> int:
        return len(self.base) + len(self.members)

    def column(self, path: Tuple[int, ...], read: Callable[[], object]
               ) -> object:
        """:meth:`Graph.column`, read once and kept for the view's life:
        the presses on a state share it, and none may mutate it."""
        found = self._columns.get(path)
        if found is None:
            found = self._columns[path] = read()
        return found

    # ------------------------------------------------------------------
    def add(self, s: Term, p: Term, o: Term) -> bool:
        raise ReadOnlyViewError("an extension view is read-only; "
                                "mutate its base store and build a new view")

    remove = add

    def __repr__(self) -> str:
        return (f"<ExtensionView {len(self.members)} × {self.cls.n3()} "
                f"over {self.base!r}>")


__all__ = ["ExtensionView", "ReadOnlyViewError"]
