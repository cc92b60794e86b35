"""Namespace helpers and the standard vocabularies (RDF, RDFS, XSD, OWL).

A :class:`Namespace` builds IRIs by attribute access (each kept after
its first access) or indexing (a fresh IRI each call)::

    EX = Namespace("http://www.ics.forth.gr/example#")
    EX.Laptop            # IRI("http://www.ics.forth.gr/example#Laptop")
    EX["release date"]   # indexing works for names that are not identifiers
"""

from __future__ import annotations

from repro.rdf.terms import IRI


class Namespace:
    """A base IRI from which term IRIs are minted."""

    def __init__(self, base: str):
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def term(self, name: str) -> IRI:
        return IRI(self._base + name)

    def __getattr__(self, name: str) -> IRI:  # kept: the next read is plain
        if name.startswith("_"):
            raise AttributeError(name)
        iri = self.__dict__[name] = self.term(name)
        return iri

    def __getitem__(self, name: str) -> IRI:
        return self.term(name)

    def __contains__(self, iri) -> bool:
        value = iri.value if isinstance(iri, IRI) else str(iri)
        return value.startswith(self._base)

    def __repr__(self):
        return f"Namespace({self._base!r})"

    def __eq__(self, other):
        return isinstance(other, Namespace) and other._base == self._base

    def __hash__(self):
        return hash(self._base)


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")

#: The predicates that state the schema — a resource's class and the
#: RDFS axioms; every "data properties only" listing excludes them.
SCHEMA_PREDICATES = frozenset(
    {RDF.type, RDFS.subClassOf, RDFS.subPropertyOf, RDFS.domain, RDFS.range}
)

#: The namespace of the dissertation's running example (Fig. 1.2).
EX = Namespace("http://www.ics.forth.gr/example#")

#: The namespace of the system's own machinery terms, and the temporary
#: class an extension is typed under for the SPARQL of Table 5.1.
APP = Namespace("http://www.ics.forth.gr/rdf-analytics#")
TEMP = APP.temp

#: Well-known prefixes used by the Turtle parser/serializer defaults.
WELL_KNOWN_PREFIXES = {
    "rdf": RDF.base,
    "rdfs": RDFS.base,
    "xsd": XSD.base,
    "owl": OWL.base,
    "ex": EX.base,
}
