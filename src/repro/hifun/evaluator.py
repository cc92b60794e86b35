"""Native evaluation of HIFUN queries: group → measure → reduce (§2.5).

:func:`evaluate_hifun_row` executes a
:class:`~repro.hifun.query.HifunQuery` directly over an RDF graph,
following the three-step semantics of the language:

1. **Grouping** — partition the items by their grouping-function value;
2. **Measuring** — within each group, extract the measuring value of
   every item;
3. **Reduction** — aggregate the measured values of each group.

It is the reference implementation: the SPARQL translation is validated
against it (Proposition 2 — the tests assert both evaluations agree on
every query), and so is the batch engine that answers in production,
:func:`repro.hifun.columnar.evaluate_hifun`, with which it shares the
answer type and the reduction step defined here.

The multiplicity semantics match SPARQL joins: when an attribute is
multi-valued, an item contributes one group/measure combination per
value assignment (the translation produces exactly those rows).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Term
from repro.hifun.attributes import (
    Attribute,
    AttributeExpr,
    Composition,
    Derived,
    Pairing,
    paths_of,
)
from repro.hifun.query import HifunQuery, Restriction
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import BUILTINS, aggregate as reduce_values, compare


def attribute_values(graph: Graph, item: Term, path: AttributeExpr) -> List[Term]:
    """All values of a path attribute for one item (empty if missing)."""
    if isinstance(path, Pairing):
        raise TypeError("attribute_values expects a path, not a pairing")
    if isinstance(path, Derived):
        base_values = attribute_values(graph, item, path.base)
        out: List[Term] = []
        for value in base_values:
            try:
                out.append(BUILTINS[path.function]([value]))
            except ExpressionError:
                continue
        return out
    if isinstance(path, Composition):
        frontier: List[Term] = [item]
        for step in path.parts:
            next_frontier: List[Term] = []
            for node in frontier:
                next_frontier.extend(_step_values(graph, node, step))
            frontier = next_frontier
            if not frontier:
                break
        return frontier
    return _step_values(graph, item, path)


def _step_values(graph: Graph, node: Term, step: AttributeExpr) -> List[Term]:
    if isinstance(step, Derived):
        out: List[Term] = []
        try:
            out.append(BUILTINS[step.function]([node]))
        except ExpressionError:
            pass
        return out
    if not isinstance(step, Attribute):
        raise TypeError(f"unexpected path step {step!r}")
    if step.inverse:
        if isinstance(node, Term):
            return sorted(graph.subjects(step.prop, node), key=lambda t: t.sort_key())
        return []
    if isinstance(node, Literal):
        return []
    return sorted(graph.objects(node, step.prop), key=lambda t: t.sort_key())


def _value_passes(value: Term, restriction: Restriction) -> bool:
    try:
        return compare(restriction.comparator, value, restriction.value)
    except ExpressionError:
        return False


def _satisfies(graph: Graph, item: Term, restriction: Restriction) -> bool:
    """True if the item has at least one value satisfying the restriction."""
    values = attribute_values(graph, item, restriction.attribute)
    for value in values:
        try:
            if compare(restriction.comparator, value, restriction.value):
                return True
        except ExpressionError:
            continue
    return False


#: The key a group's values report its cardinality under (``with_count``).
CARDINALITY = "__count__"


class AnswerFunction:
    """The answer of a HIFUN query: a function group-key → aggregates.

    Keys are tuples of Terms (one per grouping path; the empty tuple for
    the ε grouping).  Values are dicts mapping operation name → Term
    (and :data:`CARDINALITY` → the group's size, when asked for).
    Iteration order is deterministic (sorted by key).
    """

    __slots__ = ("grouping_arity", "operations", "_data")

    def __init__(self, grouping_arity: int, operations: Tuple[str, ...]):
        self.grouping_arity = grouping_arity
        self.operations = operations
        self._data: Dict[Tuple[Term, ...], Dict[str, Optional[Term]]] = {}

    def set(self, key: Tuple[Term, ...], values: Dict[str, Optional[Term]]) -> None:
        self._data[key] = values

    def __getitem__(self, key) -> Dict[str, Optional[Term]]:
        if not isinstance(key, tuple):
            key = (key,)
        return self._data[key]

    def __contains__(self, key) -> bool:
        if not isinstance(key, tuple):
            key = (key,)
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> List[Tuple[Term, ...]]:
        return sorted(self._data.keys(), key=lambda k: tuple(t.sort_key() for t in k))

    def items(self):
        for key in self.keys():
            yield key, self._data[key]

    def rows(self) -> List[Tuple]:
        """Rows ``(g_1, ..., g_n, v_op1, ..., v_opk)`` sorted by key —
        directly comparable with the SPARQL translation's result rows."""
        out = []
        for key in self.keys():
            values = self._data[key]
            row = tuple(key) + tuple(values[op] for op in self.operations)
            if CARDINALITY in values:
                row += (values[CARDINALITY],)
            out.append(row)
        return out

    def __repr__(self):
        return f"<AnswerFunction groups={len(self._data)} ops={self.operations}>"


def evaluate_hifun_row(graph: Graph, query: HifunQuery,
                       items: Optional[Iterable[Term]] = None,
                       root_class: Optional[IRI] = None) -> AnswerFunction:
    """The item-at-a-time reference evaluation: same arguments and —
    by test — same answer as the batch engine,
    :func:`repro.hifun.columnar.evaluate_hifun`."""
    from repro.rdf.namespace import RDF

    if items is not None:
        domain: Set[Term] = set(items)
    elif root_class is not None:
        domain = set(graph.subjects(RDF.type, root_class))
    else:
        domain = graph.all_subjects()

    # Apply restrictions.  A restriction on the measuring attribute itself
    # filters individual measured values (it reuses the measure variable in
    # the translation); every other restriction filters whole items.
    value_filters = []
    for restriction in query.grouping_restrictions:
        domain = {i for i in domain if _satisfies(graph, i, restriction)}
    for restriction in query.measuring_restrictions:
        if query.measuring is not None and restriction.attribute == query.measuring:
            value_filters.append(restriction)
        else:
            domain = {i for i in domain if _satisfies(graph, i, restriction)}

    grouping_paths = paths_of(query.grouping) if query.grouping is not None else ()
    operations = query.operations

    # Step 1+2: build (group key, measured value) pairs with join semantics.
    groups: Dict[Tuple[Term, ...], List[Optional[Term]]] = {}
    counts: Dict[Tuple[Term, ...], int] = {}
    for item in sorted(domain, key=lambda t: t.sort_key()):
        key_assignments = _key_assignments(graph, item, grouping_paths)
        if not key_assignments:
            continue
        if query.measuring is None:
            measured: List[Optional[Term]] = [item]
        else:
            measured = list(attribute_values(graph, item, query.measuring))
            for restriction in value_filters:
                measured = [
                    v
                    for v in measured
                    if _value_passes(v, restriction)
                ]
            if not measured:
                # An item without a measure produces no row under the
                # SPARQL join semantics.
                continue
        for key in key_assignments:
            bucket = groups.setdefault(key, [])
            bucket.extend(measured)
            counts[key] = counts.get(key, 0) + 1

    # Step 3: reduction, then result restrictions (HAVING).
    answer = AnswerFunction(len(grouping_paths), operations)
    return _reduce_groups(query, groups, counts, answer)


def _reduce_groups(
    query: HifunQuery,
    groups: Dict[Tuple[Term, ...], List[Optional[Term]]],
    counts: Dict[Tuple[Term, ...], int],
    answer: AnswerFunction,
) -> AnswerFunction:
    """Reduction + HAVING, shared verbatim by the row and columnar
    engines — whatever this code does, both engines do identically."""
    operations = answer.operations
    for key, values in groups.items():
        aggregates: Dict[str, Optional[Term]] = {}
        for op in operations:
            if op == "COUNT" and query.measuring is None:
                aggregates[op] = Literal.of(len(values))
            else:
                aggregates[op] = reduce_values(op, values, False, " ")
        if query.with_count:
            aggregates[CARDINALITY] = Literal.of(counts[key])
        keep = True
        for restriction in query.result_restrictions:
            value = aggregates.get(restriction.operation)
            if value is None:
                keep = False
                break
            try:
                if not compare(restriction.comparator, value, restriction.value):
                    keep = False
                    break
            except ExpressionError:
                keep = False
                break
        if keep:
            answer.set(key, aggregates)
    return answer


def _key_assignments(
    graph: Graph, item: Term, grouping_paths: Tuple[AttributeExpr, ...]
) -> List[Tuple[Term, ...]]:
    """All grouping-key tuples of an item (cartesian across paths)."""
    if not grouping_paths:
        return [()]
    assignments: List[Tuple[Term, ...]] = [()]
    for path in grouping_paths:
        values = attribute_values(graph, item, path)
        if not values:
            return []
        assignments = [key + (v,) for key in assignments for v in values]
    return assignments
