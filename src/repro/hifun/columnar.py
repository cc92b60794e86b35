"""Columnar (batch) evaluation of HIFUN queries.

The row engine (:mod:`repro.hifun.evaluator`) walks the graph one item
at a time: every path step of every item is a fresh index probe, a
fresh decode and a fresh sort.  This engine evaluates whole *frontiers*
instead — flat parallel columns of dense int ids moved through the
:class:`~repro.rdf.columns.ColumnEngine` primitives — so each distinct
node's successors are probed and sorted once per graph generation no
matter how many items or presses reach it (the engine is the graph's,
see :func:`~repro.rdf.columns.column_engine`), restriction verdicts
are computed once per distinct value per query, and terms are decoded
only at the group-by boundary.

The contract is *byte-identical output*: both engines produce the same
:class:`~repro.hifun.evaluator.AnswerFunction` on every query (the
equivalence suite asserts it on randomized graphs).  That requires
replicating the row engine's order-sensitive details exactly:

* the domain is sorted by term sort key, and restrictions filter it
  *sequentially*;
* frontier expansion is item-major with each node's successors in term
  sort order, so SAMPLE / GROUP_CONCAT see values in the same order;
* grouping keys are the cartesian product of the per-path value lists
  in path order; an item with an empty path contributes nothing;
* an item whose measured list ends up empty produces no row;
* the reduction + HAVING step is literally shared code
  (:func:`~repro.hifun.evaluator._reduce_groups`).

Derived steps leave id space (builtins mint new literals that need not
be interned), so a column switches to *term mode* at the first derived
step and stays there; everything before runs on ids.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.rdf.columns import Column, column_engine
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Term
from repro.hifun.attributes import (
    Attribute,
    AttributeExpr,
    Derived,
    Pairing,
    paths_of,
)
from repro.hifun.evaluator import (
    AnswerFunction,
    _reduce_groups,
    _step_values,
    _value_passes,
)
from repro.hifun.query import HifunQuery, Restriction
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import BUILTINS, compare

#: Column value kinds: dictionary ids until a derived step, Terms after.
ID_MODE = "id"
TERM_MODE = "term"


class _Evaluation:
    """One columnar evaluation: the graph generation's engine, the
    sorted domain and the per-query memos (the restriction verdicts are
    keyed by the query's constants, so they stay here)."""

    __slots__ = ("graph", "engine", "domain_terms", "domain_ids", "_prop_ids",
                 "_path_cache", "_verdicts")

    def __init__(self, graph: Graph, domain_terms: List[Term],
                 domain_ids: List[Optional[int]]):
        self.graph = graph
        self.engine = column_engine(graph)
        self.domain_terms = domain_terms
        self.domain_ids = domain_ids
        self._prop_ids: Dict[Tuple[IRI, bool], Optional[int]] = {}
        # expr → (src, values, mode); valid until the domain is filtered.
        self._path_cache: Dict[AttributeExpr, Tuple[Column, Column, str]] = {}
        # (comparator, value) → {node_id: bool}
        self._verdicts: Dict[Tuple[str, Term], Dict[int, bool]] = {}

    def narrow(self, keep: Sequence[bool]) -> None:
        """Restrict the domain to the flagged positions (order kept)."""
        self.domain_terms = [t for t, k in zip(self.domain_terms, keep) if k]
        self.domain_ids = [i for i, k in zip(self.domain_ids, keep) if k]
        self._path_cache.clear()

    def _prop_id(self, prop: IRI) -> Optional[int]:
        key = (prop, False)
        if key not in self._prop_ids:
            self._prop_ids[key] = self.graph.encode_term(prop)
        return self._prop_ids[key]

    # ------------------------------------------------------------------
    # Path expansion (the frontier-join loop)
    # ------------------------------------------------------------------
    def expand(self, expr: AttributeExpr) -> Tuple[Column, Column, str]:
        """The full value column of a path over the current domain.

        Returns parallel ``(src, values)`` columns — ``src[k]`` is the
        domain position the value belongs to — plus the value mode.
        Entries appear item-major with per-step successor sort order,
        matching the row engine's per-item evaluation order exactly.
        """
        if isinstance(expr, Pairing):
            raise TypeError("attribute_values expects a path, not a pairing")
        cached = self._path_cache.get(expr)
        if cached is not None:
            return cached
        steps = expr.steps()
        src: Column
        dst: Column
        if isinstance(steps[0], Attribute):
            # Items the dictionary has never seen have no edges at all.
            mode = ID_MODE
            src, dst = [], []
            for index, ident in enumerate(self.domain_ids):
                if ident is not None:
                    src.append(index)
                    dst.append(ident)
        else:
            # A leading derived step applies to the raw items themselves.
            mode = TERM_MODE
            src = list(range(len(self.domain_terms)))
            dst = list(self.domain_terms)
        engine = self.engine
        for step in steps:
            if not dst:
                break
            if isinstance(step, Derived):
                fn = BUILTINS[step.function]
                if mode == ID_MODE:
                    dst = engine.decode_column(dst)
                    mode = TERM_MODE
                new_src: Column = []
                new_dst: Column = []
                for origin, value in zip(src, dst):
                    try:
                        new_dst.append(fn([value]))
                    except ExpressionError:
                        continue
                    new_src.append(origin)
                src, dst = new_src, new_dst
            elif isinstance(step, Attribute):
                if mode == ID_MODE:
                    prop_id = self._prop_id(step.prop)
                    src, dst = engine.follow(src, dst, prop_id, step.inverse)
                else:
                    new_src, new_dst = [], []
                    for origin, node in zip(src, dst):
                        for value in _step_values(self.graph, node, step):
                            new_src.append(origin)
                            new_dst.append(value)
                    src, dst = new_src, new_dst
            else:
                raise TypeError(f"unexpected path step {step!r}")
        result = (src, dst, mode)
        self._path_cache[expr] = result
        return result

    def per_item_values(self, expr: AttributeExpr) -> Tuple[List[Column], str]:
        """The value column of ``expr`` regrouped per domain position."""
        src, dst, mode = self.expand(expr)
        out: List[Column] = [[] for _ in self.domain_terms]
        for origin, value in zip(src, dst):
            out[origin].append(value)
        return out, mode

    # ------------------------------------------------------------------
    # Bulk restriction evaluation
    # ------------------------------------------------------------------
    def passes(self, ident: int, comparator: str, value: Term) -> bool:
        """Does the decoded node satisfy ``comparator value``?  Memoized
        per distinct id — a column with many repeats decodes and
        compares each distinct value once."""
        memo = self._verdicts.get((comparator, value))
        if memo is None:
            memo = self._verdicts[(comparator, value)] = {}
        verdict = memo.get(ident)
        if verdict is None:
            try:
                verdict = compare(comparator, self.engine.decode(ident), value)
            except ExpressionError:
                verdict = False
            memo[ident] = verdict
        return verdict

    def satisfied(self, restriction: Restriction) -> List[bool]:
        """Per-domain-position verdict: has ≥ 1 value passing the
        restriction (the row engine's ``_satisfies``, whole-column)."""
        src, dst, mode = self.expand(restriction.attribute)
        passed = [False] * len(self.domain_terms)
        if mode == ID_MODE:
            passes = self.passes
            for origin, value in zip(src, dst):
                if not passed[origin] and passes(
                        value, restriction.comparator, restriction.value):
                    passed[origin] = True
        else:
            for origin, value in zip(src, dst):
                if not passed[origin] and _value_passes(value, restriction):
                    passed[origin] = True
        return passed

    def value_passes(self, value: object, mode: str, restriction: Restriction) -> bool:
        """One measured value against a measure-level restriction."""
        if mode == ID_MODE:
            return self.passes(value, restriction.comparator,
                               restriction.value)
        return _value_passes(value, restriction)


def _sorted_domain(graph: Graph, items: Optional[Iterable[Term]],
                   root_class: Optional[IRI],
                   items_ids: Optional[Sequence[Optional[int]]] = None,
                   ) -> Tuple[List[Term], List[Optional[int]]]:
    """The evaluation domain, sorted by term sort key, with its parallel
    id column (``None`` for terms the dictionary has never seen — they
    stay in the domain, exactly as in the row engine, and simply have no
    edges).

    ``items_ids``, when given, is the pre-encoded id column parallel to
    ``items``; the caller then warrants that ``items`` is already
    deduplicated and in term sort order (the analytics session's
    memoized domain) — the sort and the per-term dictionary probes are
    skipped entirely.
    """
    from repro.rdf.namespace import RDF

    if items is not None:
        if items_ids is not None:
            terms = list(items)
            ids = list(items_ids)
            if len(terms) != len(ids):
                raise ValueError(
                    f"items_ids must parallel items: "
                    f"{len(ids)} ids for {len(terms)} items")
            return terms, ids
        terms = sorted(set(items), key=lambda t: t.sort_key())
        return terms, [graph.encode_term(t) for t in terms]
    engine = column_engine(graph)
    if root_class is not None:
        type_id = graph.encode_term(RDF.type)
        class_id = graph.encode_term(root_class)
        ids = (engine.sort_ids(graph.subjects_ids(type_id, class_id))
               if type_id is not None and class_id is not None else [])
    else:
        ids = engine.sort_ids(graph.all_subject_ids())
    decode = engine.decode
    return [decode(ident) for ident in ids], list(ids)


def evaluate_hifun(
    graph: Graph,
    query: HifunQuery,
    items: Optional[Iterable[Term]] = None,
    root_class: Optional[IRI] = None,
    items_ids: Optional[Sequence[Optional[int]]] = None,
) -> AnswerFunction:
    """Evaluate a HIFUN query natively over ``graph``.

    ``items`` fixes the analysis root ``D`` explicitly; otherwise, if
    ``root_class`` is given its instances are used; otherwise all
    subjects having every involved attribute participate (mirroring the
    translation, where unmatched items simply produce no rows).

    ``items_ids`` is the fast path for repeated evaluations over the
    same root (the analytics session memoizes it per state): the
    encoded-id column parallel to ``items``, which must then already be
    deduplicated and sorted by term sort key (see
    :func:`_sorted_domain`).

    By construction and by test, the answer is the one
    :func:`repro.hifun.evaluator.evaluate_hifun_row` gives.
    """
    domain_terms, domain_ids = _sorted_domain(graph, items, root_class,
                                              items_ids)
    ev = _Evaluation(graph, domain_terms, domain_ids)

    # Restrictions filter the domain sequentially; a restriction on the
    # measuring attribute itself instead filters individual measured
    # values (it reuses the measure variable in the translation).
    value_filters: List[Restriction] = []
    for restriction in query.grouping_restrictions:
        ev.narrow(ev.satisfied(restriction))
    for restriction in query.measuring_restrictions:
        if query.measuring is not None and restriction.attribute == query.measuring:
            value_filters.append(restriction)
        else:
            ev.narrow(ev.satisfied(restriction))

    grouping_paths = paths_of(query.grouping) if query.grouping is not None else ()
    operations = query.operations

    # Whole-domain frontier joins: one column per grouping path, one for
    # the measure.
    key_columns: List[List[Column]] = []
    key_modes: List[str] = []
    for path in grouping_paths:
        per_item, mode = ev.per_item_values(path)
        key_columns.append(per_item)
        key_modes.append(mode)
    if query.measuring is None:
        measured_columns: List[Column] = [[term] for term in ev.domain_terms]
        measure_mode = TERM_MODE
    else:
        measured_columns, measure_mode = ev.per_item_values(query.measuring)
        if value_filters:
            measured_columns = [
                [
                    v
                    for v in measured
                    if all(ev.value_passes(v, measure_mode, r) for r in value_filters)
                ]
                for measured in measured_columns
            ]

    # Single-pass group-by: buckets keyed on raw (id-space) key tuples,
    # decoded once at the end.  The cartesian product across paths and
    # the item-major bucket extension replicate the row engine.
    groups: Dict[Tuple, List] = {}
    counts: Dict[Tuple, int] = {}
    product = itertools.product
    for index in range(len(ev.domain_terms)):
        if key_columns:
            per_path = [column[index] for column in key_columns]
            if any(not values for values in per_path):
                continue
            keys = product(*per_path)
        else:
            keys = ((),)
        measured = measured_columns[index]
        if query.measuring is not None and not measured:
            # An item without a measure produces no row under the SPARQL
            # join semantics.
            continue
        for key in keys:
            bucket = groups.get(key)
            if bucket is None:
                bucket = groups[key] = []
                counts[key] = 0
            bucket.extend(measured)
            counts[key] += 1

    # Late decode at the result boundary, then the shared reduction.
    decode = ev.engine.decode
    decoded_groups: Dict[Tuple[Term, ...], List[Term]] = {}
    decoded_counts: Dict[Tuple[Term, ...], int] = {}
    for key, values in groups.items():
        decoded_key = tuple(
            decode(part) if key_modes[position] == ID_MODE else part
            for position, part in enumerate(key)
        )
        if measure_mode == ID_MODE:
            decoded_groups[decoded_key] = [decode(v) for v in values]
        else:
            decoded_groups[decoded_key] = values
        decoded_counts[decoded_key] = counts[key]

    answer = AnswerFunction(len(grouping_paths), operations)
    _reduce_groups(query, decoded_groups, decoded_counts, answer)
    return answer


__all__ = ["evaluate_hifun"]
