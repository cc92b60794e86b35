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

from typing import Dict, Iterable, List, Optional, Set

from repro.rdf.terms import Term


class TermDictionary:
    """A bidirectional Term ↔ dense-int-id mapping (append-only)."""

    __slots__ = ("_ids", "_terms", "decode")

    def __init__(self):
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        #: ``decode(id) -> Term`` — bound list indexing, the hottest call.
        self.decode = self._terms.__getitem__

    def encode(self, term: Term) -> int:
        """Intern ``term``, assigning a fresh id on first sight."""
        ident = self._ids.get(term)
        if ident is None:
            ident = len(self._terms)
            self._ids[term] = ident
            self._terms.append(term)
        return ident

    def lookup(self, term: Term) -> Optional[int]:
        """The id of ``term`` if it was ever interned, else ``None``."""
        return self._ids.get(term)

    def canonical(self, term: Term) -> Optional[Term]:
        """The interned instance equal to ``term`` (identity-stable)."""
        ident = self._ids.get(term)
        return None if ident is None else self._terms[ident]

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
        twin._ids = dict(self._ids)
        twin._terms = list(self._terms)
        twin.decode = twin._terms.__getitem__
        return twin

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def __repr__(self):
        return f"<TermDictionary with {len(self._terms)} terms>"


__all__ = ["TermDictionary"]
