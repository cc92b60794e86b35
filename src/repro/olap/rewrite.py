"""Answering roll-ups from materialized answers (§3.3.2/§3.3.3 insight).

The surveyed systems of the dissertation ([16], [50], [51]) speed up
analytics by *materializing* query answers and computing subsequent
queries from them instead of from the base data.  This module brings
that optimization to the OLAP layer: a roll-up can be answered by
**re-aggregating the finer materialized answer**, provided

* the aggregate is *distributive* (SUM, COUNT, MIN, MAX) or
  *algebraic over kept distributive parts* (AVG from SUM+COUNT), and
* the coarser key is a **function of the finer key** — either a value
  function (``YEAR`` of a date) or a graph path (branch → country).

:func:`roll_up_from_answer` performs the rewrite; :func:`derived_mapping`
and :func:`path_mapping` build the key transformations.  The ablation
benchmark compares it against re-evaluating from the base data.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Term
from repro.hifun.attributes import Attribute
from repro.hifun.evaluator import AnswerFunction, attribute_values
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import BUILTINS, wrap_number

#: Aggregates re-computable from a finer materialization.
DISTRIBUTIVE = frozenset({"SUM", "MIN", "MAX"})


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


def path_mapping(graph: Graph, path) -> Callable[[Term], Optional[Term]]:
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


def roll_up_from_answer(
    answer: AnswerFunction,
    position: int,
    transform: Callable[[Term], Optional[Term]],
) -> AnswerFunction:
    """Re-aggregate ``answer`` with key component ``position`` mapped
    through ``transform`` (fine level → coarse level).

    Supported operations: SUM/MIN/MAX (distributive), COUNT (additive
    over group sizes — requires the finer answer's COUNT to be a row
    count, which HIFUN's COUNT over the identity measure is), and AVG
    when the finer answer also carries SUM and COUNT.
    """
    if position < 0 or position >= answer.grouping_arity:
        raise RewriteError(
            f"key position {position} out of range for arity "
            f"{answer.grouping_arity}"
        )
    operations = answer.operations
    for op in operations:
        if op in DISTRIBUTIVE or op == "COUNT":
            continue
        if op == "AVG" and "SUM" in operations and "COUNT" in operations:
            continue
        raise RewriteError(
            f"operation {op} is not re-aggregable from a materialized "
            "answer (needs SUM+COUNT alongside, or a distributive op)"
        )

    buckets: Dict[Tuple[Term, ...], List[Dict[str, Optional[Term]]]] = {}
    for key, values in answer.items():
        coarse = transform(key[position])
        if coarse is None:
            raise RewriteError(
                f"key value {key[position]!r} has no image under the "
                "level mapping; cannot rewrite"
            )
        new_key = key[:position] + (coarse,) + key[position + 1 :]
        buckets.setdefault(new_key, []).append(values)

    result = AnswerFunction(answer.grouping_arity, operations)
    for key, groups in buckets.items():
        merged: Dict[str, Optional[Term]] = {}
        for op in operations:
            numbers = [g[op].to_python() for g in groups if g.get(op) is not None]
            if op == "SUM" or op == "COUNT":
                merged[op] = wrap_number(_exact_sum(numbers))
            elif op == "MIN":
                merged[op] = wrap_number(min(numbers))
            elif op == "MAX":
                merged[op] = wrap_number(max(numbers))
        if "AVG" in operations:
            total = _exact_sum(
                g["SUM"].to_python() for g in groups if g.get("SUM") is not None
            )
            count = _exact_sum(
                g["COUNT"].to_python() for g in groups if g.get("COUNT") is not None
            )
            merged["AVG"] = wrap_number(float(total) / float(count)) if count else None
        result.set(key, merged)
    return result


def _exact_sum(numbers) -> float:
    values = list(numbers)
    if all(isinstance(n, int) for n in values):
        return sum(values)
    return float(sum(float(n) for n in values))
