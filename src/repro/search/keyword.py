"""A ranked keyword-search index over an RDF graph.

Each resource is indexed under the tokens of:

* its IRI local name (weight 3 — the resource's own identifier),
* its literal property values (weight 2 — its direct description),
* the local names of its IRI property values (weight 1 — neighbourhood).

Queries are bags of tokens; scoring is a TF×weight sum with an IDF
factor, so rare terms dominate — the usual ranked-retrieval behaviour
the dissertation's "keyword search" access method (§2.2) refers to.
The result set can seed a faceted session directly::

    hits = KeywordIndex(graph).search("dell laptop")
    session = FacetedSession(graph, results=[h.resource for h in hits])
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, RDFS, SCHEMA_PREDICATES
from repro.rdf.terms import BNode, IRI, Literal, Term, display_name

_WORD_RE = re.compile(r"[A-Za-z0-9]+")

#: Field weights: own name, literal values, neighbour names.
WEIGHT_NAME = 3.0
WEIGHT_LITERAL = 2.0
WEIGHT_NEIGHBOUR = 1.0


def tokenize(text: str) -> List[str]:
    """Lower-cased alphanumeric tokens, splitting camelCase and
    letter/digit boundaries (``laptop1`` → ``laptop``, ``1``)."""
    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", text)
    spaced = re.sub(r"(?<=[A-Za-z])(?=[0-9])", " ", spaced)
    return [t.lower() for t in _WORD_RE.findall(spaced)]


@dataclass(frozen=True)
class SearchHit:
    """One ranked result: the resource and its score."""

    resource: Term
    score: float

    @property
    def label(self) -> str:
        return display_name(self.resource)


class KeywordIndex:
    """An inverted index over the resources of a graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        #: token -> {resource -> accumulated weight}
        self._postings: Dict[str, Dict[Term, float]] = defaultdict(dict)
        self._resources: Set[Term] = set()
        self._build()

    def _credit(self, token: str, resource: Term, weight: float) -> None:
        postings = self._postings[token]
        postings[resource] = postings.get(resource, 0.0) + weight

    def _build(self) -> None:
        for subject in self.graph.all_subjects():
            if isinstance(subject, BNode):
                continue
            # Skip pure schema nodes (classes/properties).
            types = set(self.graph.objects(subject, RDF.type))
            if RDFS.Class in types or RDF.Property in types:
                continue
            self._resources.add(subject)
            if isinstance(subject, IRI):
                for token in tokenize(subject.local_name()):
                    self._credit(token, subject, WEIGHT_NAME)
            for _, predicate, obj in self.graph.triples(subject, None, None):
                if predicate in SCHEMA_PREDICATES:
                    continue
                if isinstance(obj, Literal):
                    for token in tokenize(obj.lexical):
                        self._credit(token, subject, WEIGHT_LITERAL)
                elif isinstance(obj, IRI):
                    for token in tokenize(obj.local_name()):
                        self._credit(token, subject, WEIGHT_NEIGHBOUR)

    def __len__(self) -> int:
        return len(self._resources)

    def _idf(self, token: str) -> float:
        matching = len(self._postings.get(token, ()))
        if matching == 0:
            return 0.0
        return 1.0 + math.log(len(self._resources) / matching)

    def search(self, query: str, limit: Optional[int] = 10) -> List[SearchHit]:
        """Ranked resources matching any query token (OR semantics)."""
        scores: Dict[Term, float] = defaultdict(float)
        for token in tokenize(query):
            idf = self._idf(token)
            for resource, weight in self._postings.get(token, {}).items():
                scores[resource] += weight * idf
        ranked = sorted(
            (SearchHit(resource, score) for resource, score in scores.items()),
            key=lambda hit: (-hit.score, hit.resource.sort_key()),
        )
        return ranked[:limit] if limit is not None else ranked
