"""Tests of the §7.1 expressiveness planner: HIFUN query → click script.

The central theorem-as-test: for every expressible query, executing the
generated click script yields the same answer as evaluating the query
directly (translation + engine).
"""

import pytest

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.datasets import invoices_graph, products_graph
from repro.facets import FacetedAnalyticsSession
from repro.facets.analytics import GroupSpec, MeasureSpec
from repro.facets.intentions import ClassCondition, Intention, PathValueCondition
from repro.facets.planner import (
    InexpressibleQueryError,
    execute_plan,
    plan_interaction,
)
from repro.hifun import (
    Attribute,
    HifunQuery,
    Restriction,
    ResultRestriction,
    compose,
    evaluate_hifun,
    pair,
)
from repro.hifun.attributes import Derived

takes = Attribute(EX.takesPlaceAt)
qty = Attribute(EX.inQuantity)
delivers = Attribute(EX.delivers)
brand = Attribute(EX.brand)
has_date = Attribute(EX.hasDate)


def direct_rows(graph, query, root_class):
    return sorted(evaluate_hifun(graph, query, root_class=root_class).rows())


def planned_rows(graph, query, root_class):
    plan = plan_interaction(query, root_class)
    session = FacetedAnalyticsSession(graph)
    frame = execute_plan(session, plan)
    return sorted(tuple(row) for row in frame.rows)


EXPRESSIBLE = (
    HifunQuery(takes, qty, "SUM"),
    HifunQuery(compose(brand, delivers), qty, "AVG"),
    HifunQuery(pair(takes, delivers), qty, ("SUM", "MAX")),
    HifunQuery(Derived("MONTH", has_date), qty, "SUM"),
    HifunQuery(takes, None, "COUNT"),
    HifunQuery(None, qty, "AVG"),
    HifunQuery(
        takes, qty, "SUM",
        grouping_restrictions=(Restriction(takes, "=", EX.branch1),),
    ),
    HifunQuery(
        takes, qty, "SUM",
        measuring_restrictions=(Restriction(qty, ">=", Literal.of(200)),),
    ),
    HifunQuery(
        pair(takes, compose(brand, delivers)), qty, "SUM",
        grouping_restrictions=(Restriction(delivers, "=", EX.prod1),),
    ),
)


class TestExpressibleQueries:
    @pytest.mark.parametrize("query", EXPRESSIBLE, ids=str)
    def test_plan_reproduces_direct_evaluation(self, query):
        graph = invoices_graph()
        assert planned_rows(graph, query, EX.Invoice) == direct_rows(
            graph, query, EX.Invoice
        )

    def test_having_query_via_reload(self):
        graph = invoices_graph()
        query = HifunQuery(
            takes, qty, "SUM",
            result_restrictions=(ResultRestriction("SUM", ">", Literal.of(300)),),
        )
        assert planned_rows(graph, query, EX.Invoice) == direct_rows(
            graph, query, EX.Invoice
        )

    def test_plan_actions_shape(self):
        query = HifunQuery(
            pair(takes, Derived("MONTH", has_date)), qty, "SUM",
            grouping_restrictions=(Restriction(takes, "=", EX.branch1),),
            result_restrictions=(ResultRestriction("SUM", ">", Literal.of(1)),),
        )
        plan = plan_interaction(query, EX.Invoice)
        # the eight steps, as the session's own objects ...
        assert plan.clicks == [
            ClassCondition(EX.Invoice), PathValueCondition((takes,), EX.branch1),
        ]
        assert plan.groups == [
            GroupSpec((takes,)), GroupSpec((has_date,), "MONTH"),
        ]
        assert plan.measure == MeasureSpec((qty,), ("SUM",))
        assert plan.query.result_restrictions == query.result_restrictions
        # ... and in words, in order
        assert len(plan) == 8
        assert plan.describe().splitlines() == [
            "1. click class 'Invoice'",
            "2. expand 'takesPlaceAt' and click 'branch1'",
            "3. press G on 'takesPlaceAt'",
            "4. press G on 'hasDate' via MONTH",
            "5. press Σ on 'inQuantity' and pick SUM",
            "6. run the analytic query",
            "7. press 'Explore with FS' (load the answer as a dataset)",
            "8. filter answer column 'SUM' > 1",
        ]

    def test_derived_grouping_uses_transformation_flag(self):
        plan = plan_interaction(
            HifunQuery(Derived("YEAR", has_date), qty, "SUM"), EX.Invoice
        )
        assert plan.groups == [GroupSpec((has_date,), "YEAR")]
        assert plan.describe().splitlines()[1] == "2. press G on 'hasDate' via YEAR"

    @pytest.mark.parametrize("query", EXPRESSIBLE, ids=str)
    def test_executed_plan_leaves_the_session_the_plan_is_made_of(self, query):
        """A plan holds the session's own objects: after executing it the
        session's intention is the plan's clicks, its button state the
        plan's presses."""
        plan = plan_interaction(query, EX.Invoice)
        session = FacetedAnalyticsSession(invoices_graph())
        execute_plan(session, plan)
        intention = Intention()
        for click in plan.clicks:
            intention = intention.with_condition(click)
        assert session.state.intention == intention
        assert intention.root_class == EX.Invoice
        assert session.group_specs == plan.groups
        assert session.measure_spec == plan.measure
        assert len(session.history()) == 1 + len(plan.clicks)

    def test_describe_is_human_readable(self):
        plan = plan_interaction(HifunQuery(takes, qty, "SUM"), EX.Invoice)
        text = plan.describe()
        assert "press G" in text and "press Σ" in text and "run" in text


class TestInexpressibleQueries:
    def test_derived_restriction_needs_transformation(self):
        query = HifunQuery(
            takes, qty, "SUM",
            grouping_restrictions=(
                Restriction(Derived("MONTH", has_date), "=", Literal.of(1)),
            ),
        )
        with pytest.raises(InexpressibleQueryError) as err:
            plan_interaction(query, EX.Invoice)
        assert "transformation" in str(err.value)

    def test_derived_measure_needs_transformation(self):
        query = HifunQuery(takes, Derived("MONTH", has_date), "SUM")
        with pytest.raises(InexpressibleQueryError):
            plan_interaction(query, EX.Invoice)


class TestOnProductsKG:
    def test_motivating_query_fragment(self):
        graph = products_graph()
        manufacturer = Attribute(EX.manufacturer)
        origin = Attribute(EX.origin)
        price = Attribute(EX.price)
        usb = Attribute(EX.USBPorts)
        query = HifunQuery(
            manufacturer, price, "AVG",
            grouping_restrictions=(
                Restriction(compose(origin, manufacturer), "=", EX.US),
                Restriction(usb, ">=", Literal.of(2)),
            ),
        )
        assert planned_rows(graph, query, EX.Laptop) == direct_rows(
            graph, query, EX.Laptop
        )
