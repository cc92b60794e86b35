"""Saving and replaying interaction sessions.

The dissertation stresses that query formulation is *gradual* and
*iterative* — users refine queries over repeated steps.  This module
makes sessions durable: :func:`session_to_dict` captures the whole
interaction (every condition of the state intention plus the G/Σ button
state) as plain JSON-able data, and :func:`replay_session` rebuilds an
equivalent session over a graph.  Replays go through the public click
API, so a saved session is also an executable interaction script.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.rdf.graph import Graph
from repro.rdf.terms import BNode, IRI, Literal, Term
from repro.facets.analytics import FacetedAnalyticsSession
from repro.facets.intentions import (
    ClassCondition,
    PathRangeCondition,
    PathValueCondition,
    PathValueSetCondition,
)
from repro.facets.model import PropertyRef


def term_to_dict(term: Term) -> Dict:
    if isinstance(term, IRI):
        return {"kind": "iri", "value": term.value}
    if isinstance(term, BNode):
        return {"kind": "bnode", "value": term.label}
    if isinstance(term, Literal):
        return {
            "kind": "literal",
            "value": term.lexical,
            "datatype": term.datatype,
            "language": term.language,
        }
    raise TypeError(f"cannot serialize {term!r}")


def term_from_dict(data: Dict) -> Term:
    kind = data["kind"]
    if kind == "iri":
        return IRI(data["value"])
    if kind == "bnode":
        return BNode(data["value"])
    if kind == "literal":
        return Literal(data["value"], data["datatype"], data.get("language", ""))
    raise ValueError(f"unknown term kind {kind!r}")


def _path_to_list(path) -> List[Dict]:
    return [
        {"prop": step.prop.value, "inverse": step.inverse} for step in path
    ]


def _path_from_list(data) -> tuple:
    return tuple(
        PropertyRef(IRI(step["prop"]), step.get("inverse", False))
        for step in data
    )


def _conditions_to_list(conditions) -> List[Dict]:
    out: List[Dict] = []
    for condition in conditions:
        if isinstance(condition, ClassCondition):
            out.append({"action": "class", "cls": condition.cls.value})
        elif isinstance(condition, PathValueCondition):
            out.append(
                {
                    "action": "value",
                    "path": _path_to_list(condition.path),
                    "value": term_to_dict(condition.value),
                }
            )
        elif isinstance(condition, PathValueSetCondition):
            out.append(
                {
                    "action": "values",
                    "path": _path_to_list(condition.path),
                    "values": [term_to_dict(v) for v in condition.values],
                }
            )
        elif isinstance(condition, PathRangeCondition):
            out.append(
                {
                    "action": "range",
                    "path": _path_to_list(condition.path),
                    "comparator": condition.comparator,
                    "value": term_to_dict(condition.value),
                }
            )
        else:
            raise TypeError(f"cannot serialize condition {condition!r}")
    return out


def _intention_to_dict(intention) -> Dict:
    data: Dict = {
        "root_class": intention.root_class.value if intention.root_class else None,
        "seeds": (
            [term_to_dict(t) for t in intention.seeds]
            if intention.seeds is not None
            else None
        ),
        "conditions": _conditions_to_list(intention.conditions),
    }
    if intention.pivot is not None:
        inner, path = intention.pivot
        data["pivot"] = {
            "inner": _intention_to_dict(inner),
            "path": _path_to_list(path),
        }
    return data


def session_to_dict(session: FacetedAnalyticsSession) -> Dict:
    """Capture a session's interaction state as JSON-able data.

    The whole pivot chain (entity-type switches) is preserved: each
    pivot nests the pre-pivot intention under ``pivot.inner``.
    """
    data = _intention_to_dict(session.state.intention)
    data["version"] = 1
    data["groups"] = [
        {"path": _path_to_list(g.path), "derived": g.derived}
        for g in session.group_specs
    ]
    measure = session.measure_spec
    if measure is not None:
        data["measure"] = {
            "path": _path_to_list(measure.path) if measure.path else None,
            "operations": list(measure.operations),
            "derived": measure.derived,
        }
    return data


def session_to_json(session: FacetedAnalyticsSession, indent: int = 2) -> str:
    return json.dumps(session_to_dict(session), indent=indent)


def _replay_intention(session: FacetedAnalyticsSession, data: Dict) -> None:
    """Replay one intention level: inner pivot chain first, then the
    class selection and conditions of this level."""
    pivot = data.get("pivot")
    if pivot is not None:
        _replay_intention(session, pivot["inner"])
        session.pivot_to(_path_from_list(pivot["path"]))
    if data.get("root_class"):
        session.select_class(IRI(data["root_class"]))
    for condition in data.get("conditions", ()):
        action = condition["action"]
        if action == "class":
            session.select_class(IRI(condition["cls"]))
        elif action == "value":
            session.select_value(
                _path_from_list(condition["path"]),
                term_from_dict(condition["value"]),
            )
        elif action == "values":
            session.select_values(
                _path_from_list(condition["path"]),
                [term_from_dict(v) for v in condition["values"]],
            )
        elif action == "range":
            session.select_range(
                _path_from_list(condition["path"]),
                condition["comparator"],
                term_from_dict(condition["value"]),
            )
        else:
            raise ValueError(f"unknown action {action!r}")


def replay_session(graph: Graph, data,
                   open_session=FacetedAnalyticsSession) -> FacetedAnalyticsSession:
    """Rebuild a session from saved data by replaying the interaction
    on the session ``open_session(graph, results=seeds)`` opens — the
    caller's kind of session (endpoint-backed, strict, over an already
    closed graph), a plain :class:`FacetedAnalyticsSession` by default."""
    if isinstance(data, str):
        data = json.loads(data)
    if data.get("version") != 1:
        raise ValueError(f"unsupported session version {data.get('version')!r}")
    # Seeds belong to the innermost (pre-pivot) intention: the session
    # must start from them.
    innermost = data
    while innermost.get("pivot") is not None:
        innermost = innermost["pivot"]["inner"]
    seeds = innermost.get("seeds")
    session = open_session(
        graph,
        results=[term_from_dict(t) for t in seeds] if seeds is not None else None,
    )
    _replay_intention(session, data)
    for group in data.get("groups", ()):
        session.group_by(_path_from_list(group["path"]), derived=group.get("derived"))
    measure = data.get("measure")
    if measure is not None:
        if measure["path"] is None:
            session.count_items()
        else:
            session.measure(
                _path_from_list(measure["path"]),
                tuple(measure["operations"]),
                derived=measure.get("derived"),
            )
    return session
