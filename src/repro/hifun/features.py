"""Feature Creation Operators (Table 4.1, §4.1.2, §4.2.6).

When RDF data violates HIFUN's prerequisites (missing values,
multi-valued properties), the dissertation repairs it with *Linked
Data-based Feature Creation Operators*.  Each operator defines a feature
``f_i`` whose value ``f_i(e)`` derives from the triples around entity
``e``.  The nine operators of Table 4.1:

====  =======================  =========  =============================
 id    operator                 type       meaning
====  =======================  =========  =============================
 1     ``p.value``              num/categ  the (single) value of ``p``
 2     ``p.exists``             boolean    has any ``p`` triple (either direction)
 3     ``p.count``              int        number of ``p`` values
 4     ``p.values.AsFeatures``  boolean    one indicator feature per value
 5     ``degree``               double     number of triples touching ``e``
 6     ``average degree``       double     mean degree of ``e``'s neighbours
 7     ``p1.p2.exists``         boolean    a 2-step path exists
 8     ``p1.p2.count``          int        number of 2-step path endpoints
 9     ``p1.p2.value.maxFreq``  num/categ  most frequent path endpoint
====  =======================  =========  =============================

Each operator is a :class:`FeatureOperator`: calling it on
``(graph, entity)`` returns the feature value(s); :func:`apply_feature`
materializes a feature over a set of entities as new RDF triples
``(e, feature_iri, value)`` — the CONSTRUCT-style data transformation of
§4.1.2 — so the repaired attribute is functional and HIFUN-ready.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace
from repro.rdf.terms import IRI, Literal, Term, display_name

#: Namespace for materialized feature properties.
FEAT = Namespace("http://www.ics.forth.gr/features#")


@dataclass(frozen=True)
class FeatureOperator:
    """A named feature: ``fn(graph, entity) -> list of (suffix, value)``.

    Most operators yield a single value (suffix ``""``); FCO4 yields one
    indicator per observed value, using the value as suffix.
    """

    name: str
    fco_id: int
    fn: Callable[[Graph, Term], List[Tuple[str, Term]]]

    def __call__(self, graph: Graph, entity: Term) -> List[Tuple[str, Term]]:
        return self.fn(graph, entity)

    def value(self, graph: Graph, entity: Term) -> Optional[Term]:
        """The single value of this feature (None if it yields none)."""
        results = self.fn(graph, entity)
        return results[0][1] if results else None


def _single(value: Term) -> List[Tuple[str, Term]]:
    return [("", value)]


# -- FCO1: p.value ----------------------------------------------------------
def fco_value(prop: IRI, default: Optional[Term] = None) -> FeatureOperator:
    """FCO1 — the plain value of a functional property.

    With ``default`` given, missing values are replaced by it (the
    §4.2.6 repair for incomplete information).
    """

    def fn(graph: Graph, entity: Term) -> List[Tuple[str, Term]]:
        values = sorted(graph.objects(entity, prop), key=lambda t: t.sort_key())
        if values:
            return _single(values[0])
        if default is not None:
            return _single(default)
        return []

    return FeatureOperator(f"{prop.local_name()}.value", 1, fn)


# -- FCO2: p.exists ----------------------------------------------------------
def fco_exists(prop: IRI) -> FeatureOperator:
    """FCO2 — 1 if the entity has a ``p`` triple in either direction."""

    def fn(graph: Graph, entity: Term) -> List[Tuple[str, Term]]:
        has = (
            next(graph.triples(entity, prop, None), None) is not None
            or next(graph.triples(None, prop, entity), None) is not None
        )
        return _single(Literal.of(1 if has else 0))

    return FeatureOperator(f"{prop.local_name()}.exists", 2, fn)


# -- FCO3: p.count -----------------------------------------------------------
def fco_count(prop: IRI) -> FeatureOperator:
    """FCO3 — the number of distinct values of ``p`` for the entity."""

    def fn(graph: Graph, entity: Term) -> List[Tuple[str, Term]]:
        return _single(Literal.of(graph.count(entity, prop, None)))

    return FeatureOperator(f"{prop.local_name()}.count", 3, fn)


# -- FCO4: p.values.AsFeatures -------------------------------------------------
def fco_values_as_features(prop: IRI) -> FeatureOperator:
    """FCO4 — one boolean indicator feature per value of ``p``."""

    def fn(graph: Graph, entity: Term) -> List[Tuple[str, Term]]:
        out: List[Tuple[str, Term]] = []
        for value in sorted(graph.objects(entity, prop), key=lambda t: t.sort_key()):
            out.append((display_name(value), Literal.of(1)))
        return out

    return FeatureOperator(f"{prop.local_name()}.values.AsFeatures", 4, fn)


# -- FCO5: degree ---------------------------------------------------------------
def fco_degree() -> FeatureOperator:
    """FCO5 — the number of triples in which the entity appears."""

    def fn(graph: Graph, entity: Term) -> List[Tuple[str, Term]]:
        degree = graph.count(entity, None, None) + graph.count(None, None, entity)
        return _single(Literal.of(degree))

    return FeatureOperator("degree", 5, fn)


# -- FCO6: average degree ---------------------------------------------------------
def fco_average_degree() -> FeatureOperator:
    """FCO6 — |triples(C)| / |C| over the entity's object neighbours C."""

    def fn(graph: Graph, entity: Term) -> List[Tuple[str, Term]]:
        neighbours = {
            o for o in graph.objects(entity, None) if not isinstance(o, Literal)
        }
        if not neighbours:
            return _single(Literal.of(0.0))
        # |triples(C)|: every triple into C, plus those out of C that do
        # not end in C (counted already as incoming)
        total = 0
        for c in neighbours:
            total += graph.count(None, None, c)
            total += sum(1 for _, _, o in graph.triples(c, None, None)
                         if o not in neighbours)
        return _single(Literal.of(total / len(neighbours)))

    return FeatureOperator("average_degree", 6, fn)


def _path_endpoints(graph: Graph, entity: Term, p1: IRI, p2: IRI) -> List[Term]:
    endpoints: List[Term] = []
    for o1 in graph.objects(entity, p1):
        if isinstance(o1, Literal):
            continue
        endpoints.extend(graph.objects(o1, p2))
    return endpoints


# -- FCO7: p1.p2.exists ---------------------------------------------------------
def fco_path_exists(p1: IRI, p2: IRI) -> FeatureOperator:
    """FCO7 — 1 if a 2-step path ``p1/p2`` exists from the entity."""

    def fn(graph: Graph, entity: Term) -> List[Tuple[str, Term]]:
        exists = bool(_path_endpoints(graph, entity, p1, p2))
        return _single(Literal.of(1 if exists else 0))

    return FeatureOperator(f"{p1.local_name()}.{p2.local_name()}.exists", 7, fn)


# -- FCO8: p1.p2.count ------------------------------------------------------------
def fco_path_count(p1: IRI, p2: IRI) -> FeatureOperator:
    """FCO8 — the number of path endpoints over ``p1/p2``."""

    def fn(graph: Graph, entity: Term) -> List[Tuple[str, Term]]:
        return _single(Literal.of(len(set(_path_endpoints(graph, entity, p1, p2)))))

    return FeatureOperator(f"{p1.local_name()}.{p2.local_name()}.count", 8, fn)


# -- FCO9: p1.p2.value.maxFreq -------------------------------------------------------
def fco_path_max_freq(p1: IRI, p2: IRI) -> FeatureOperator:
    """FCO9 — the most frequent endpoint of ``p1/p2`` (ties broken
    deterministically by term order)."""

    def fn(graph: Graph, entity: Term) -> List[Tuple[str, Term]]:
        endpoints = _path_endpoints(graph, entity, p1, p2)
        if not endpoints:
            return []
        counts = Counter(endpoints)
        top_count = max(counts.values())
        candidates = sorted(
            (t for t, c in counts.items() if c == top_count),
            key=lambda t: t.sort_key(),
        )
        return _single(candidates[0])

    return FeatureOperator(
        f"{p1.local_name()}.{p2.local_name()}.value.maxFreq", 9, fn
    )


def fco_path_aggregate(p1: IRI, p2: IRI, operation: str = "AVG") -> FeatureOperator:
    """Extension operator of §4.2.6: aggregate a 2-step path's values.

    The dissertation's example: associate each product with the *average
    birth year of its founders* — an aggregate over the path
    ``founder/birthYear`` embedded as a sub-query.  ``operation`` is any
    HIFUN reduction (AVG, SUM, MIN, MAX, COUNT).  This is the
    "the list of feature operators can be expanded" clause of §4.1.2,
    realized.
    """
    from repro.sparql.functions import aggregate as reduce_values

    name = operation.upper()

    def fn(graph: Graph, entity: Term) -> List[Tuple[str, Term]]:
        endpoints = _path_endpoints(graph, entity, p1, p2)
        if not endpoints and name != "COUNT":
            return []
        value = reduce_values(name, list(endpoints), False, " ")
        if value is None:
            return []
        return _single(value)

    return FeatureOperator(
        f"{p1.local_name()}.{p2.local_name()}.{name.lower()}", 10, fn
    )


def feature_iri(operator: FeatureOperator, suffix: str = "") -> IRI:
    """The IRI under which a feature is materialized."""
    safe = operator.name.replace(".", "_")
    if suffix:
        safe += "_" + "".join(ch if ch.isalnum() else "_" for ch in suffix)
    return FEAT.term(safe)


def apply_feature(
    graph: Graph,
    entities: Iterable[Term],
    operator: FeatureOperator,
    target: Optional[Graph] = None,
) -> Graph:
    """Materialize a feature over ``entities`` as new triples.

    Adds ``(e, feature_iri(op, suffix), value)`` for every produced value
    into ``target`` (a new graph by default) and returns it.  The result
    can be merged into the source graph (``graph.union(...)``) to obtain
    the transformed, HIFUN-ready dataset of §4.1.2.
    """
    result = target if target is not None else Graph()
    for entity in entities:
        for suffix, value in operator(graph, entity):
            result.add(entity, feature_iri(operator, suffix), value)
    return result
