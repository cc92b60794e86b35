"""Dictionary encoding of RDF terms onto dense integer ids.

Every IRI, blank node and literal that enters a :class:`repro.rdf.Graph`
is interned once into a :class:`TermDictionary` and represented by a
dense ``int`` from then on.  The two permutation indexes, the join
probes of the SPARQL evaluator and the set algebra of the faceted
engine all operate on those ints — hashing an int and comparing two
ints is far cheaper than hashing/comparing IRI strings, and the id sets
are much smaller than sets of term objects.  Terms are decoded back
only at iteration boundaries (when triples leave the store).

Interning also canonicalizes: :meth:`TermDictionary.decode` always
returns the *same* object for the same id, so downstream equality
checks can short-circuit on identity.

Ids are append-only — removing a triple never frees its terms' ids.
That is the standard trade-off of dictionary-encoded stores (the
dictionary grows with the *vocabulary*, not with churn); the index
slots themselves are pruned eagerly on removal.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Callable, Iterable, List, Optional, Set

from repro.rdf.terms import Term, native_number


class _Memo(dict):
    """id → ``read(term)`` of the id's term, worked out on the first
    read of the id (read it with ``[]``); an id the dictionary never
    issued is a ``KeyError``.  An id never changes its term, so an
    entry is never stale."""

    __slots__ = ("terms", "read")

    def __init__(self, terms: List[Term], read: Callable[[Term], object]):
        super().__init__()
        self.terms, self.read = terms, read

    def __missing__(self, ident):
        if type(ident) is not int or not 0 <= ident < len(self.terms):
            raise KeyError(ident)
        value = self[ident] = self.read(self.terms[ident])
        return value


class _Ids(dict):
    """term → id: reading a term it does not hold (with ``[]``) interns
    the term, appending it to ``terms``."""

    __slots__ = ("terms",)
    terms: List[Term]

    def __missing__(self, term: Term) -> int:
        ident = self[term] = len(self.terms)
        self.terms.append(term)
        return ident


class TermDictionary:
    """A bidirectional Term ↔ dense-int-id mapping (append-only)."""

    __slots__ = ("_ids", "_terms", "encode", "lookup", "decode", "numbers",
                 "sort_keys")

    def __init__(self):
        self._terms: List[Term] = []
        self._ids = _Ids()
        self._ids.terms = self._terms
        # The three crossings are bound C methods: a hit runs no Python.
        #: ``encode(term) -> int`` — intern ``term``, a fresh id on first
        #: sight; ``lookup(term)`` — its id, or ``None``: never interns.
        self.encode: Callable[[Term], int] = self._ids.__getitem__
        self.lookup: Callable[[Term], Optional[int]] = self._ids.get
        #: ``decode(id) -> Term`` — bound list indexing, the hottest call.
        self.decode = self._terms.__getitem__
        #: id → the native number of its term (``None``: no number),
        #: read by the SPARQL aggregates and the facets' range clicks.
        self.numbers = _Memo(self._terms, native_number)
        #: id → ``Term.sort_key()``, the marker order of the facet listings.
        self.sort_keys = _Memo(self._terms, methodcaller("sort_key"))

    def decode_all(self, ids: Iterable[int]) -> Set[Term]:
        decode = self.decode
        return {decode(ident) for ident in ids}

    def clone(self) -> "TermDictionary":
        """An independent copy with identical term ↔ id assignments.

        Used when copying or repartitioning a store (``Graph.copy``,
        ``ShardedGraph.from_graph``): copying the two maps wholesale is
        far cheaper than re-interning every term, and — because ids are
        append-only — the clone stays valid for every id the source ever
        issued.
        """
        twin = TermDictionary()
        twin._ids.update(self._ids)
        twin._terms.extend(self._terms)
        return twin

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def __repr__(self):
        return f"<TermDictionary with {len(self._terms)} terms>"


__all__ = ["TermDictionary"]
