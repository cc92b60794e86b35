"""The eight evaluation tasks of the task-based study (§8.1, §8.2).

Each :class:`Task` carries a natural-language statement (mirroring the
style of the dissertation's tasks over the products KG), a difficulty
grade derived from the number and kind of UI actions it needs, and a
``run`` script that drives a real :class:`FacetedAnalyticsSession` —
executing all of them end-to-end is the *implementability* check of
§8.2.

The ladder of tasks covers every interaction feature: plain faceted
restriction, range filters, aggregates without/with grouping, property
paths, multi-attribute grouping, derived attributes, and a nested
(HAVING) query via the answer-frame reload.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal, Term
from repro.facets.analytics import AnswerFrame, FacetedAnalyticsSession


@dataclass(frozen=True)
class Task:
    """One evaluation task.

    ``actions`` is the minimum number of UI clicks/selections the task
    needs; ``difficulty`` is a 1–5 grade (1 = plain faceted click,
    5 = nested analytic query), used by the cohort simulation.
    """

    task_id: str
    statement: str
    actions: int
    difficulty: int
    run: Callable[[FacetedAnalyticsSession], object]


def _t1(session: FacetedAnalyticsSession) -> List[Term]:
    """Find all laptops (plain class selection)."""
    session.select_class(EX.Laptop)
    return session.objects()


def _t2(session: FacetedAnalyticsSession) -> List[Term]:
    """Find the laptops manufactured by DELL (facet value click)."""
    session.select_class(EX.Laptop)
    session.select_value((EX.manufacturer,), EX.DELL)
    return session.objects()


def _t3(session: FacetedAnalyticsSession) -> List[Term]:
    """Find the laptops with 2 or more USB ports released in 2021."""
    session.select_class(EX.Laptop)
    session.select_range((EX.USBPorts,), ">=", Literal.of(2))
    session.select_range(
        (EX.releaseDate,), ">=", Literal.of(_dt.date(2021, 1, 1))
    )
    return session.objects()


def _t4(session: FacetedAnalyticsSession) -> AnswerFrame:
    """Average price of laptops (aggregate without grouping) — Ex. 1."""
    session.select_class(EX.Laptop)
    session.measure((EX.price,), "AVG")
    return session.run()


def _t5(session: FacetedAnalyticsSession) -> AnswerFrame:
    """Count of laptops grouped by manufacturer (aggregate + grouping)."""
    session.select_class(EX.Laptop)
    session.group_by((EX.manufacturer,))
    session.count_items()
    return session.run()


def _t6(session: FacetedAnalyticsSession) -> AnswerFrame:
    """Count of 2021 laptops with an SSD and ≥2 USB ports grouped by the
    manufacturer's country (path expansion + grouping) — Ex. 3."""
    session.select_class(EX.Laptop)
    session.select_range(
        (EX.releaseDate,), ">=", Literal.of(_dt.date(2021, 1, 1))
    )
    session.select_values((EX.hardDrive,), [EX.SSD1, EX.SSD2])
    session.select_range((EX.USBPorts,), ">=", Literal.of(2))
    session.group_by((EX.manufacturer, EX.origin))
    session.count_items()
    return session.run()


def _t7(session: FacetedAnalyticsSession) -> AnswerFrame:
    """Average, sum and max price of laptops with 2–4 USB ports grouped
    by manufacturer and its origin (Fig. 6.2: multi-aggregate, pairing,
    derived grouping path)."""
    session.select_class(EX.Laptop)
    session.select_interval((EX.USBPorts,), Literal.of(2), Literal.of(4))
    session.group_by((EX.manufacturer,))
    session.group_by((EX.manufacturer, EX.origin))
    session.measure((EX.price,), ("AVG", "SUM", "MAX"))
    return session.run()


def _t8(session: FacetedAnalyticsSession) -> List[Term]:
    """Average price of laptops grouped by manufacturer and release year,
    keeping only groups with average price above 850 — the nested /
    HAVING query of Example 4, via the answer-frame reload."""
    session.select_class(EX.Laptop)
    session.group_by((EX.manufacturer,))
    session.group_by((EX.releaseDate,), derived="YEAR")
    session.measure((EX.price,), "AVG")
    frame = session.run()
    nested = frame.explore()
    nested.select_range(
        (frame.column_property("avg_price"),), ">", Literal.of(850)
    )
    return nested.objects()


EVALUATION_TASKS: Tuple[Task, ...] = (
    Task("T1", "Find all laptops.", actions=1, difficulty=1, run=_t1),
    Task("T2", "Find the laptops manufactured by DELL.", actions=2,
         difficulty=1, run=_t2),
    Task("T3", "Find the laptops with at least 2 USB ports released in "
               "2021.", actions=3, difficulty=2, run=_t3),
    Task("T4", "Find the average price of laptops.", actions=2,
         difficulty=2, run=_t4),
    Task("T5", "Count the laptops per manufacturer.", actions=3,
         difficulty=3, run=_t5),
    Task("T6", "Count the 2021 laptops with an SSD and at least 2 USB "
               "ports, grouped by the manufacturer's country.", actions=6,
         difficulty=4, run=_t6),
    Task("T7", "Average, sum and max price of laptops with 2 to 4 USB "
               "ports, grouped by manufacturer and its origin.", actions=6,
         difficulty=4, run=_t7),
    Task("T8", "Average price of laptops by manufacturer and year, only "
               "for groups with average price above 850.", actions=7,
         difficulty=5, run=_t8),
)
