"""The expressive power of the interaction model, made executable (§7.1).

Chapter 7 characterizes *which* HIFUN queries the faceted interface can
formulate.  This module turns that characterization into code:

* :func:`plan_interaction` maps a :class:`~repro.hifun.query.HifunQuery`
  to the **click script** — the exact sequence of UI actions (class
  selection, facet value clicks, range filters, G/Σ presses, an
  answer-frame reload for HAVING) that formulates it, or raises
  :class:`InexpressibleQueryError` explaining which construct falls
  outside the interaction model.  The script is made of the session's
  own objects: conditions (an attribute restriction read back as its
  click, :func:`~repro.facets.intentions.condition_of`) and G/Σ specs;
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

from repro.rdf.terms import IRI, display_name
from repro.hifun.attributes import Attribute, AttributeExpr, Derived
from repro.hifun.query import HifunQuery
from repro.facets.analytics import (
    APP,
    AnswerFrame,
    FacetedAnalyticsSession,
    GroupSpec,
    MeasureSpec,
)
from repro.facets.intentions import (
    ClassCondition,
    Condition,
    PathValueCondition,
    condition_of,
)
from repro.facets.model import Path


class InexpressibleQueryError(ValueError):
    """The query falls outside the interaction model; the message names
    the offending construct (the §7.1 boundary)."""


def _label(path: Path) -> str:
    return " ▷ ".join(step.name for step in path)


def _describe_click(click: Condition) -> str:
    if isinstance(click, ClassCondition):
        return f"click class '{click.cls.local_name()}'"
    if isinstance(click, PathValueCondition):
        return (f"expand '{_label(click.path)}' and click "
                f"'{display_name(click.value)}'")
    return f"filter '{_label(click.path)}' {click.comparator} {click.value}"


@dataclass
class InteractionPlan:
    """A click script plus the query it formulates: the clicks, G
    presses and Σ press to take before *run*, as the session's own
    objects; its HAVING steps are the query's ``result_restrictions``."""

    query: HifunQuery
    clicks: List[Condition]
    groups: List[GroupSpec]
    measure: MeasureSpec

    def _steps(self) -> List[str]:
        """The UI actions in order, in words."""
        steps = [_describe_click(click) for click in self.clicks]
        for group in self.groups:
            fn = f" via {group.derived}" if group.derived else ""
            steps.append(f"press G on '{_label(group.path)}'{fn}")
        if self.measure.path is None:
            steps.append("press Σ and pick 'count of items'")
        else:
            ops = ", ".join(self.measure.operations)
            steps.append(f"press Σ on '{_label(self.measure.path)}' and pick {ops}")
        steps.append("run the analytic query")
        if self.query.result_restrictions:
            steps.append("press 'Explore with FS' (load the answer as a dataset)")
        for rr in self.query.result_restrictions:
            steps.append(
                f"filter answer column '{rr.operation}' {rr.comparator} {rr.value}")
        return steps

    def describe(self) -> str:
        return "\n".join(
            f"{i}. {step}" for i, step in enumerate(self._steps(), start=1))

    def __len__(self) -> int:
        return len(self._steps())


def _attr_to_path(expr: AttributeExpr) -> Tuple[Path, Optional[str]]:
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
    clicks: List[Condition] = []
    if root_class is not None:
        clicks.append(ClassCondition(root_class))

    # Attribute restrictions become clicks / range filters.
    for restriction in query.grouping_restrictions + query.measuring_restrictions:
        if _attr_to_path(restriction.attribute)[1] is not None:
            raise InexpressibleQueryError(
                f"restriction over the derived attribute "
                f"'{restriction.attribute}' needs a transformation (⚙) "
                "step; the plain interaction cannot click on it"
            )
        clicks.append(condition_of(restriction))

    # Grouping: one G press per pairing component.
    groups = [GroupSpec(*_attr_to_path(path)) for path in query.grouping_paths]

    # Measure: one Σ press.
    if query.measuring is None:
        measure = MeasureSpec(None, ("COUNT",))
    else:
        path, derived = _attr_to_path(query.measuring)
        if derived is not None:
            raise InexpressibleQueryError(
                f"measuring a derived attribute '{query.measuring}' needs "
                "a transformation (⚙) step"
            )
        measure = MeasureSpec(path, query.operations)
    return InteractionPlan(query, clicks, groups, measure)


def execute_plan(session: FacetedAnalyticsSession, plan: InteractionPlan) -> AnswerFrame:
    """Replay a plan on a session; returns the final answer frame.

    For plans with a HAVING step, the returned frame contains the rows
    of the inner answer that survive the answer-dataset restriction.
    """
    for click in plan.clicks:
        session.refine(click)
    for group in plan.groups:
        session.group_by(group.path, derived=group.derived)
    session.measure(plan.measure.path, plan.measure.operations)
    frame = session.run()
    if not plan.query.result_restrictions:
        return frame
    # Result restrictions: reload the answer, filter the aggregate
    # columns, and rebuild the surviving rows from the nested extension.
    nested = frame.explore()
    for rr in plan.query.result_restrictions:
        alias = dict(frame.aggregate_columns)[rr.operation]
        nested.select_range(
            (frame.column_property(alias),), rr.comparator, rr.value)
    surviving = [row for index, row in enumerate(frame.rows, start=1)
                 if APP.term(f"t{index}") in nested.extension]
    return AnswerFrame(frame.columns, surviving, plan.query)
