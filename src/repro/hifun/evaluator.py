"""Evaluation of HIFUN queries (§2.5, §4.2).

:func:`evaluate_hifun` is the system's evaluator: it translates a
:class:`~repro.hifun.query.HifunQuery` to SPARQL (§4.2) and evaluates
the translation, so Propositions 1–2 make its answer the query's
answer by construction.  :func:`evaluate_hifun_row` executes the query
directly over an RDF graph instead, following the three-step semantics
of the language:

1. **Grouping** — partition the items by their grouping-function value;
2. **Measuring** — within each group, extract the measuring value of
   every item;
3. **Reduction** — aggregate the measured values of each group.

It is the reference the translation is validated against (Proposition
2 — the tests assert both agree on every query that meets HIFUN's
prerequisites, §4.1; outside them the translation's answer stands).

The multiplicity semantics match SPARQL joins: when an attribute is
multi-valued, an item contributes one group/measure combination per
value assignment (the translation produces exactly those rows).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, TEMP
from repro.rdf.overlay import ExtensionView
from repro.rdf.terms import IRI, Literal, Term
from repro.hifun.attributes import (
    Attribute,
    AttributeExpr,
    Composition,
    Derived,
    Pairing,
    paths_of,
)
from repro.hifun.query import HifunQuery, Restriction, ResultRestriction
from repro.hifun.translator import translate
from repro.sparql.errors import ExpressionError
from repro.sparql.evaluator import parse_query, select_rows
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


def _value_passes(value: Term,
                   restriction: Union[Restriction, ResultRestriction]) -> bool:
    """Does ``value`` satisfy a (result) restriction's comparison?"""
    try:
        return compare(restriction.comparator, value, restriction.value)
    except ExpressionError:
        return False


def _satisfies(graph: Graph, item: Term, restriction: Restriction) -> bool:
    """True if the item has at least one value satisfying the restriction."""
    return any(_value_passes(value, restriction)
               for value in attribute_values(graph, item, restriction.attribute))


#: The key a group's values report its cardinality under (``with_count``).
CARDINALITY = "__count__"


def row_sort_key(row: Tuple[Optional[Term], ...]) -> Tuple[tuple, ...]:
    """Term order over a group key or an answer row; an unbound cell
    sorts first."""
    return tuple(t.sort_key() if t is not None else (-1,) for t in row)


class AnswerFunction:
    """The answer of a HIFUN query: a function group-key → aggregates.

    Keys are tuples of Terms (one per grouping path; the empty tuple for
    the ε grouping) — a part is ``None`` where the translation left the
    grouping value unbound.  Values are dicts mapping operation name →
    Term (and :data:`CARDINALITY` → the group's size, when asked for).
    Iteration order is deterministic (sorted by key).
    """

    __slots__ = ("grouping_arity", "operations", "_data")

    def __init__(self, grouping_arity: int, operations: Tuple[str, ...]):
        self.grouping_arity = grouping_arity
        self.operations = operations
        self._data: Dict[Tuple[Optional[Term], ...], Dict[str, Optional[Term]]] = {}

    def set(self, key: Tuple[Optional[Term], ...],
            values: Dict[str, Optional[Term]]) -> None:
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

    def keys(self) -> List[Tuple[Optional[Term], ...]]:
        return sorted(self._data.keys(), key=row_sort_key)

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


def evaluate_hifun(graph: Graph, query: HifunQuery,
                   items: Optional[Iterable[Term]] = None,
                   root_class: Optional[IRI] = None) -> AnswerFunction:
    """Evaluate a HIFUN query: translate it (§4.2) and evaluate the
    translation over ``graph``.

    The analysis root ``D`` is ``items`` when given — the graph is then
    read through an :class:`~repro.rdf.overlay.ExtensionView` typing
    them under the temporary class of Table 5.1 (a literal is no item);
    otherwise the instances of ``root_class``; otherwise every subject
    of the graph.  The translation is evaluated directly, never through
    a store's result cache: every call computes its answer.
    """
    if items is not None:
        graph, root_class = ExtensionView(graph, TEMP, items), TEMP
    elif root_class is None:
        graph, root_class = ExtensionView(
            graph, TEMP, ids=graph.all_subject_ids()), TEMP
    translation = translate(query, root_class=root_class)
    names, rows = select_rows(parse_query(translation.text), graph)
    at = {name: n for n, name in enumerate(names)}
    keys = [at[alias] for alias in translation.group_aliases]
    operations = [(op, at[alias])
                  for op, alias in translation.aggregate_aliases]
    if translation.count_alias:
        operations.append((CARDINALITY, at[translation.count_alias]))
    answer = AnswerFunction(len(keys), query.operations)
    for row in rows:
        answer.set(tuple([row[n] for n in keys]),
                   {op: row[n] for op, n in operations})
    return answer


def evaluate_hifun_row(graph: Graph, query: HifunQuery,
                       items: Optional[Iterable[Term]] = None,
                       root_class: Optional[IRI] = None) -> AnswerFunction:
    """The item-at-a-time reference evaluation: same arguments and —
    where HIFUN's prerequisites hold — same answer as
    :func:`evaluate_hifun`.  A literal in ``items`` is no item."""
    if items is not None:
        domain: Set[Term] = {t for t in items if not isinstance(t, Literal)}
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
    for key, values in groups.items():
        aggregates: Dict[str, Optional[Term]] = {}
        for op in operations:
            if op == "COUNT" and query.measuring is None:
                aggregates[op] = Literal.of(len(values))
            else:
                aggregates[op] = reduce_values(op, values, False, " ")
        if query.with_count:
            aggregates[CARDINALITY] = Literal.of(counts[key])
        if all(aggregates.get(r.operation) is not None
               and _value_passes(aggregates[r.operation], r)
               for r in query.result_restrictions):
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
