"""The expressive power of the interaction model, made executable (§7.1).

Chapter 7 characterizes *which* HIFUN queries the faceted interface can
formulate.  This module turns that characterization into code:

* :func:`plan_interaction` maps a :class:`~repro.hifun.query.HifunQuery`
  to the **click script** — the exact sequence of UI actions (class
  selection, facet value clicks, range filters, G/Σ presses, an
  answer-frame reload for HAVING) that formulates it, or raises
  :class:`InexpressibleQueryError` explaining which construct falls
  outside the interaction model;
* :func:`execute_plan` replays a plan on a session and returns the
  answer — the tests assert it equals the direct evaluation of the
  query, which *is* the §7.1 expressiveness claim, verified.

Expressible per the dissertation: any grouping/measuring paths from the
context root (compositions = path expansion, pairings = multiple G
presses, derived attributes = the transformation button), attribute
restrictions (URI clicks and range filters), and result restrictions
(HAVING) via loading the answer as a new dataset.  Not expressible
without a transformation step: restrictions over *derived* attribute
values (e.g. ``month∘date = 1`` needs the ⚙ button first — the planner
reports this precisely).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.rdf.terms import IRI, Term
from repro.hifun.attributes import (
    Attribute,
    AttributeExpr,
    Derived,
    paths_of,
)
from repro.hifun.query import HifunQuery
from repro.facets.analytics import APP, AnswerFrame, FacetedAnalyticsSession
from repro.facets.model import PropertyRef


class InexpressibleQueryError(ValueError):
    """The query falls outside the interaction model; the message names
    the offending construct (the §7.1 boundary)."""


@dataclass(frozen=True)
class Action:
    """One UI action of a plan.

    ``kind`` is one of ``select_class``, ``select_value``,
    ``select_range``, ``group_by``, ``measure``, ``count_items``,
    ``run``, ``explore``, ``filter_answer``.
    """

    kind: str
    path: Tuple[PropertyRef, ...] = ()
    value: Optional[Term] = None
    comparator: Optional[str] = None
    derived: Optional[str] = None
    operations: Tuple[str, ...] = ()
    column: Optional[str] = None

    def describe(self) -> str:
        if self.kind == "select_class":
            return f"click class '{self.value.local_name()}'"
        path = " ▷ ".join(step.name for step in self.path)
        if self.kind == "select_value":
            label = (
                self.value.local_name()
                if isinstance(self.value, IRI)
                else str(self.value)
            )
            return f"expand '{path}' and click '{label}'"
        if self.kind == "select_range":
            return f"filter '{path}' {self.comparator} {self.value}"
        if self.kind == "group_by":
            fn = f" via {self.derived}" if self.derived else ""
            return f"press G on '{path}'{fn}"
        if self.kind == "measure":
            ops = ", ".join(self.operations)
            return f"press Σ on '{path}' and pick {ops}"
        if self.kind == "count_items":
            return "press Σ and pick 'count of items'"
        if self.kind == "run":
            return "run the analytic query"
        if self.kind == "explore":
            return "press 'Explore with FS' (load the answer as a dataset)"
        if self.kind == "filter_answer":
            return f"filter answer column '{self.column}' {self.comparator} {self.value}"
        return self.kind


@dataclass
class InteractionPlan:
    """An ordered click script plus the query it formulates."""

    query: HifunQuery
    root_class: Optional[IRI]
    actions: List[Action]

    def describe(self) -> str:
        return "\n".join(
            f"{i + 1}. {action.describe()}"
            for i, action in enumerate(self.actions)
        )

    def __len__(self):
        return len(self.actions)


def _attr_to_path(expr: AttributeExpr) -> Tuple[Tuple[PropertyRef, ...], Optional[str]]:
    """(path, derived-function) of a path attribute expression."""
    derived = None
    if isinstance(expr, Derived):
        derived, expr = expr.function, expr.base
    steps = expr.steps()
    for step in steps:
        if not isinstance(step, Attribute):
            raise InexpressibleQueryError(
                f"path step {step!r} is not a plain property"
            )
    return (steps, derived)


def plan_interaction(
    query: HifunQuery, root_class: Optional[IRI] = None
) -> InteractionPlan:
    """The click script that formulates ``query`` (§7.1)."""
    actions: List[Action] = []
    if root_class is not None:
        actions.append(Action("select_class", value=root_class))

    # Attribute restrictions become clicks / range filters.
    for restriction in query.grouping_restrictions + query.measuring_restrictions:
        path, derived = _attr_to_path(restriction.attribute)
        if derived is not None:
            raise InexpressibleQueryError(
                f"restriction over the derived attribute "
                f"'{restriction.attribute}' needs a transformation (⚙) "
                "step; the plain interaction cannot click on it"
            )
        if restriction.is_uri_equality:
            actions.append(
                Action("select_value", path=path, value=restriction.value)
            )
        else:
            actions.append(
                Action(
                    "select_range",
                    path=path,
                    comparator=restriction.comparator,
                    value=restriction.value,
                )
            )

    # Grouping: one G press per pairing component.
    for grouping_path in (paths_of(query.grouping) if query.grouping else ()):
        path, derived = _attr_to_path(grouping_path)
        actions.append(Action("group_by", path=path, derived=derived))

    # Measure: one Σ press.
    if query.measuring is None:
        actions.append(Action("count_items"))
    else:
        path, derived = _attr_to_path(query.measuring)
        if derived is not None:
            raise InexpressibleQueryError(
                f"measuring a derived attribute '{query.measuring}' needs "
                "a transformation (⚙) step"
            )
        actions.append(Action("measure", path=path, operations=query.operations))

    actions.append(Action("run"))

    # Result restrictions: reload the answer and filter the aggregate column.
    if query.result_restrictions:
        actions.append(Action("explore"))
        for rr in query.result_restrictions:
            actions.append(
                Action(
                    "filter_answer",
                    comparator=rr.comparator,
                    value=rr.value,
                    column=rr.operation,
                )
            )
    return InteractionPlan(query=query, root_class=root_class, actions=actions)


def execute_plan(session: FacetedAnalyticsSession, plan: InteractionPlan) -> AnswerFrame:
    """Replay a plan on a session; returns the final answer frame.

    For plans with a HAVING step, the returned frame contains the rows
    of the inner answer that survive the answer-dataset restriction.
    """
    frame: Optional[AnswerFrame] = None
    nested: Optional[FacetedAnalyticsSession] = None
    for action in plan.actions:
        if action.kind == "select_class":
            session.select_class(action.value)
        elif action.kind == "select_value":
            session.select_value(action.path, action.value)
        elif action.kind == "select_range":
            session.select_range(action.path, action.comparator, action.value)
        elif action.kind == "group_by":
            session.group_by(action.path, derived=action.derived)
        elif action.kind == "measure":
            session.measure(action.path, action.operations)
        elif action.kind == "count_items":
            session.count_items()
        elif action.kind == "run":
            frame = session.run()
        elif action.kind == "explore":
            nested = frame.explore()
        elif action.kind == "filter_answer":
            alias = dict(frame.aggregate_columns)[action.column]
            nested.select_range(
                (frame.column_property(alias),), action.comparator, action.value
            )
        else:  # pragma: no cover - guarded by plan construction
            raise ValueError(f"unknown action {action.kind!r}")
    if nested is None:
        return frame
    # Rebuild the surviving rows from the nested extension.
    surviving = []
    for index, row in enumerate(frame.rows, start=1):
        if APP.term(f"t{index}") in nested.extension:
            surviving.append(row)
    return AnswerFrame(frame.columns, surviving, plan.query)
