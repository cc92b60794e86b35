"""Saving and replaying interaction sessions.

The dissertation stresses that query formulation is *gradual* and
*iterative* — users refine queries over repeated steps.  This module
makes sessions durable: :func:`session_to_dict` captures the whole
interaction (every condition of the state intention plus the G/Σ button
state) as plain JSON-able data, and :func:`replay_session` rebuilds an
equivalent session over a graph by taking the same clicks again, so a
saved session is also an executable interaction script.  A saved click
is its condition's fields (:data:`_CLICKS`, :data:`_FIELDS`); a saved
session is outside input, so what is missing or of the wrong kind is a
:class:`ValueError` naming the key (:func:`_get`).
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Callable, Dict, List, Tuple, Type, Union

from repro.rdf.graph import Graph
from repro.rdf.terms import BNode, IRI, Literal, Term
from repro.facets.analytics import FacetedAnalyticsSession
from repro.facets.intentions import (
    ClassCondition,
    Condition,
    Intention,
    PathRangeCondition,
    PathValueCondition,
    PathValueSetCondition,
)
from repro.facets.model import Path, PropertyRef


def _get(data: Any, key: str, kind: type, default: Any = ...) -> Any:
    """``data[key]``, which must be a ``kind``.  The key is required
    (``...``) unless a ``default`` is given for its absence — and for
    ``null``, where that default is ``None``."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with key {key!r}, got {data!r}")
    value = data.get(key, default)
    if value is ...:
        raise ValueError(f"missing key {key!r}")
    if value is not default and not isinstance(value, kind):
        raise ValueError(f"key {key!r} must hold a {kind.__name__}, got {value!r}")
    return value


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
    kind, value = _get(data, "kind", str), _get(data, "value", str)
    if kind == "iri":
        return IRI(value)
    if kind == "bnode":
        return BNode(value)
    if kind == "literal":
        return Literal(value, _get(data, "datatype", str),
                       _get(data, "language", str, ""))
    raise ValueError(f"unknown term kind {kind!r}")


def _path_to_list(path: Path) -> List[Dict]:
    return [
        {"prop": step.prop.value, "inverse": step.inverse} for step in path
    ]


def _path_from_list(data: List) -> Path:
    if not data:
        raise ValueError("a property path needs at least one step")
    return tuple(
        PropertyRef(IRI(_get(step, "prop", str)),
                    _get(step, "inverse", bool, False))
        for step in data
    )


#: The condition class of each version-1 ``"action"`` name.
_CLICKS: Dict[str, Type[Condition]] = {
    "class": ClassCondition,
    "value": PathValueCondition,
    "values": PathValueSetCondition,
    "range": PathRangeCondition,
}

#: Per condition field — the dataclass field names *are* the version-1
#: keys, in order: the JSON kind it holds, how it is written and read.
_FIELDS: Dict[str, Tuple[type, Callable, Callable]] = {
    "cls": (str, lambda cls: cls.value, IRI),
    "path": (list, _path_to_list, _path_from_list),
    "value": (dict, term_to_dict, term_from_dict),
    "values": (list, lambda values: [term_to_dict(v) for v in values],
               lambda data: tuple(term_from_dict(v) for v in data)),
    "comparator": (str, str, str),
}


def _condition_to_dict(condition: Condition) -> Dict:
    for action, cls in _CLICKS.items():
        if type(condition) is cls:
            return {"action": action, **{
                field.name: _FIELDS[field.name][1](getattr(condition, field.name))
                for field in fields(cls)}}
    raise TypeError(f"cannot serialize condition {condition!r}")


def _condition_from_dict(data: Dict) -> Condition:
    action = _get(data, "action", str)
    if action not in _CLICKS:
        raise ValueError(f"unknown action {action!r}")
    values = []
    for field in fields(_CLICKS[action]):
        kind, _, read = _FIELDS[field.name]
        values.append(read(_get(data, field.name, kind)))
    return _CLICKS[action](*values)


def _intention_to_dict(intention: Intention) -> Dict:
    data: Dict = {
        "root_class": intention.root_class.value if intention.root_class else None,
        "seeds": (
            [term_to_dict(t) for t in intention.seeds]
            if intention.seeds is not None
            else None
        ),
        "conditions": [_condition_to_dict(c) for c in intention.conditions],
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
    if session._with_count:
        data["with_count"] = True
    return data


def session_to_json(session: FacetedAnalyticsSession, indent: int = 2) -> str:
    return json.dumps(session_to_dict(session), indent=indent)


def _replay_intention(open_session: Callable[..., FacetedAnalyticsSession],
                      graph: Graph, data: Dict) -> FacetedAnalyticsSession:
    """Replay one intention level: the inner pivot chain first — the
    innermost level opens the session, from its seeds — then the class
    selection and conditions of this level."""
    pivot = _get(data, "pivot", dict, None)
    if pivot is None:
        seeds = _get(data, "seeds", list, None)
        session = open_session(graph, results=None if seeds is None else [
            term_from_dict(t) for t in seeds])
    else:
        session = _replay_intention(open_session, graph, _get(pivot, "inner", dict))
        session.pivot_to(_path_from_list(_get(pivot, "path", list)))
    root_class = _get(data, "root_class", str, None)
    if root_class:
        session.select_class(IRI(root_class))
    for condition in _get(data, "conditions", list, ()):
        session.refine(_condition_from_dict(condition))
    return session


def replay_session(
    graph: Graph, data: Union[str, Dict],
    open_session: Callable[..., FacetedAnalyticsSession] = FacetedAnalyticsSession,
) -> FacetedAnalyticsSession:
    """Rebuild a session from saved data by replaying the interaction
    on the session ``open_session(graph, results=seeds)`` opens — the
    caller's kind of session (endpoint-backed, strict, over an already
    closed graph), a plain :class:`FacetedAnalyticsSession` by default.
    Malformed data raises :class:`ValueError`."""
    if isinstance(data, str):
        data = json.loads(data)
    version = _get(data, "version", int, None)
    if version != 1:
        raise ValueError(f"unsupported session version {version!r}")
    session = _replay_intention(open_session, graph, data)
    for group in _get(data, "groups", list, ()):
        session.group_by(_path_from_list(_get(group, "path", list)),
                         derived=_get(group, "derived", str, None))
    measure = _get(data, "measure", dict, None)
    if measure is not None:
        path = _get(measure, "path", list, None)  # null: count of items
        operations = _get(measure, "operations", list)
        if not all(isinstance(op, str) for op in operations):
            raise ValueError(f"key 'operations' must hold strings, got {operations!r}")
        session.measure(None if path is None else _path_from_list(path),
                        tuple(operations),
                        derived=_get(measure, "derived", str, None))
    session.with_count(_get(data, "with_count", bool, False))
    return session
