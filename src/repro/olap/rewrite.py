"""Answering roll-ups from materialized answers (§3.3.2/§3.3.3 insight).

The surveyed systems of the dissertation ([16], [50], [51]) speed up
analytics by *materializing* query answers and computing subsequent
queries from them instead of from the base data.  This module brings
that optimization to the OLAP layer: a coarser query can be answered by
**re-aggregating the finer materialized answer**, provided

* the aggregate is *distributive* (SUM, COUNT, MIN, MAX) or
  *algebraic over kept distributive parts* (AVG from SUM and a count)
  — :func:`merge_blocker` — and
* the coarser key is a **function of the finer key**.

:func:`merge_groups` is the re-aggregation; its two callers differ in
the key function.  :func:`roll_up_from_answer` maps a key component
(:func:`derived_mapping`, :func:`path_mapping`; the ablation benchmark
compares it against re-evaluating from the base data), and
:meth:`repro.facets.analytics.AnswerFrame.drop_grouping_column` removes
one.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Term
from repro.hifun.attributes import Attribute
from repro.hifun.evaluator import CARDINALITY, AnswerFunction, attribute_values
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import BUILTINS, aggregate, wrap_number

#: A group key, and the aggregates a group has: operation → value, and
#: :data:`CARDINALITY` → the group's size when the answer reports it.
Key = Tuple[Optional[Term], ...]
Aggregates = Dict[str, Optional[Term]]

#: The reduction that merges the partial results of each distributive
#: aggregate: partial sums and counts add up, extrema nest.
_MERGED_BY = {"SUM": "SUM", "COUNT": "SUM", CARDINALITY: "SUM",
              "MIN": "MIN", "MAX": "MAX"}


class RewriteError(ValueError):
    """The roll-up cannot be answered from the materialized answer; the
    message says which requirement failed."""


def derived_mapping(function: str) -> Callable[[Term], Optional[Term]]:
    """Key transform applying a SPARQL builtin (e.g. ``YEAR``)."""
    name = function.upper()
    if name not in BUILTINS:
        raise RewriteError(f"unknown derived function {function!r}")

    def transform(term: Term) -> Optional[Term]:
        try:
            return BUILTINS[name]([term])
        except ExpressionError:
            return None

    return transform


def path_mapping(
    graph: Graph, path: Iterable[Union[Attribute, IRI]]
) -> Callable[[Term], Optional[Term]]:
    """Key transform following a property path in the graph (functional
    properties only — e.g. branch → city → country).  A step is an
    :class:`~repro.hifun.attributes.Attribute` or, for a forward step,
    its bare IRI."""
    steps = [s if isinstance(s, Attribute) else Attribute(s) for s in path]

    def transform(term: Term) -> Optional[Term]:
        current = term
        for step in steps:
            values = attribute_values(graph, current, step)
            if isinstance(current, Literal) or len(values) != 1:
                return None  # literal source, missing or non-functional
            current = values[0]
        return current

    return transform


def merge_blocker(operations: Tuple[str, ...], counted: bool) -> Optional[str]:
    """Why groups aggregated by ``operations`` cannot be merged from
    their aggregates alone, or ``None`` when they can: AVG needs SUM and
    a count beside it (the COUNT operation, or the cardinalities of a
    ``counted`` answer); SAMPLE and GROUP_CONCAT need the base data."""
    for op in operations:
        if op in _MERGED_BY:
            continue
        if op == "AVG" and "SUM" in operations and (
                counted or "COUNT" in operations):
            continue
        return (
            f"operation {op} is not re-aggregable from a materialized "
            "answer (AVG needs SUM and a count alongside; SAMPLE and "
            "GROUP_CONCAT need the base data)"
        )
    return None


def merge_groups(groups: Iterable[Tuple[Key, Aggregates]]) -> Dict[Key, Aggregates]:
    """What the ``(coarse key, partial aggregates)`` pairs of ``groups``
    add up to, per key, by the reduction step the engines aggregate
    with: SUM, COUNT and the cardinalities add up, MIN and MAX take the
    extremum, AVG is the merged SUM over the merged COUNT (else
    cardinality).  An unbound part is skipped.  The caller has asked
    :func:`merge_blocker`."""
    buckets: Dict[Key, List[Aggregates]] = {}
    for key, values in groups:
        buckets.setdefault(key, []).append(values)

    result: Dict[Key, Aggregates] = {}
    for key, members in buckets.items():
        merged = result[key] = {}
        for name in members[0]:
            if name in _MERGED_BY:
                parts = [m[name] for m in members if m[name] is not None]
                merged[name] = (
                    aggregate(_MERGED_BY[name], parts, False, " ")
                    if parts else None)
        if "AVG" in members[0]:
            total = merged["SUM"]
            count = merged.get("COUNT", merged.get(CARDINALITY))
            merged["AVG"] = None
            if total is not None and count is not None and count.to_python():
                merged["AVG"] = wrap_number(
                    float(total.to_python()) / float(count.to_python()))
    return result


def roll_up_from_answer(
    answer: AnswerFunction,
    position: int,
    transform: Callable[[Term], Optional[Term]],
) -> AnswerFunction:
    """Re-aggregate ``answer`` with key component ``position`` mapped
    through ``transform`` (fine level → coarse level).

    Supported operations: those :func:`merge_blocker` lets through —
    COUNT adds up, which requires the finer answer's COUNT to be a row
    count (HIFUN's COUNT over the identity measure is).
    """
    if position < 0 or position >= answer.grouping_arity:
        raise RewriteError(
            f"key position {position} out of range for arity "
            f"{answer.grouping_arity}"
        )
    fine = list(answer.groups())
    blocker = merge_blocker(
        answer.operations, bool(fine) and CARDINALITY in fine[0][1])
    if blocker:
        raise RewriteError(blocker)

    images: Dict[Optional[Term], Optional[Term]] = {}  # one call per value

    def coarse_key(key: Key) -> Key:
        fine_value = key[position]
        coarse = images.get(fine_value)
        if coarse is None:
            coarse = images[fine_value] = transform(fine_value)
        if coarse is None:
            raise RewriteError(
                f"key value {key[position]!r} has no image under the "
                "level mapping; cannot rewrite"
            )
        return key[:position] + (coarse,) + key[position + 1 :]

    result = AnswerFunction(answer.grouping_arity, answer.operations)
    for key, values in merge_groups(
            (coarse_key(key), values) for key, values in fine).items():
        result.set(key, values)
    return result
