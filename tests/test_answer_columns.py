"""Tests of the §5.1 'Extra Columns' actions on the answer frame."""

import pytest

from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF, XSD
from repro.rdf.terms import Literal
from repro.datasets import invoices_graph
from repro.facets import FacetedAnalyticsSession


def build_frame():
    session = FacetedAnalyticsSession(invoices_graph())
    session.select_class(EX.Invoice)
    session.group_by((EX.takesPlaceAt,))
    session.group_by((EX.delivers, EX.brand))
    session.measure((EX.inQuantity,), ("SUM",))
    return session.run()


class TestSelectColumns:
    def test_projection_keeps_order(self):
        frame = build_frame()
        projected = frame.select_columns(["sum_inQuantity", "takesPlaceAt"])
        assert projected.columns == ("sum_inQuantity", "takesPlaceAt")
        assert len(projected) == len(frame)

    def test_unknown_column_raises(self):
        frame = build_frame()
        with pytest.raises(ValueError):
            frame.select_columns(["nope"])


ENGINES = ("sparql", "native", "row", "restrictions")

BRANCH, BRAND, MONTH = "takesPlaceAt", "delivers_brand", "month_hasDate"


def invoices_state(columns, ops=("SUM",), with_count=False):
    """The invoices of at least 100 items grouped by the named
    ``columns`` — a state whose intention holds a range filter, so the
    ``restrictions`` engine has something to fold into the query."""
    session = FacetedAnalyticsSession(invoices_graph())
    session.select_class(EX.Invoice)
    session.select_range((EX.inQuantity,), ">=", Literal.of(100))
    for column in columns:
        press_g(session, column)
    session.measure((EX.inQuantity,), ops)
    session.with_count(with_count)
    return session


def press_g(session, column):
    """The G (or ⚙) button of the path behind ``column``; pressed again,
    it removes that grouping."""
    if column == MONTH:
        session.derive((EX.hasDate,), "MONTH")
    else:
        session.group_by({BRANCH: (EX.takesPlaceAt,),
                          BRAND: (EX.delivers, EX.brand)}[column])


def colours_state():
    """Three widgets, ``a`` both red and blue: SUM and COUNT of price
    grouped by (maker, colour)."""
    graph = Graph()
    for item, maker, colours, price in (
            (EX.a, EX.m, (EX.red, EX.blue), 10),
            (EX.b, EX.m, (EX.red,), 20),
            (EX.c, EX.n, (EX.red,), 5)):
        graph.add(item, RDF.type, EX.Widget)
        graph.add(item, EX.maker, maker)
        graph.add(item, EX.price, Literal.of(price))
        for colour in colours:
            graph.add(item, EX.colour, colour)
    session = FacetedAnalyticsSession(graph)
    session.select_class(EX.Widget)
    session.group_by((EX.maker,))
    session.group_by((EX.colour,))
    session.measure((EX.price,), ("SUM", "COUNT"))
    return session


def readings_state():
    """Eight readings by station and shift; a station's levels are all
    integers, integers and doubles, or all doubles: MIN, MAX and SUM of
    level grouped by (station, shift)."""
    graph = Graph()
    for index, (station, shift, level) in enumerate((
            ("north", "day", 1), ("north", "day", 2), ("north", "night", 3),
            ("south", "day", 1.5), ("south", "day", 2), ("south", "night", 4),
            ("west", "day", 7), ("west", "night", 0.25))):
        item = EX[f"reading{index}"]
        graph.add(item, RDF.type, EX.Reading)
        graph.add(item, EX.station, EX[station])
        graph.add(item, EX.shift, EX[shift])
        graph.add(item, EX.level, Literal.of(level))
    session = FacetedAnalyticsSession(graph)
    session.select_class(EX.Reading)
    session.group_by((EX.station,))
    session.group_by((EX.shift,))
    session.measure((EX.level,), ("MIN", "MAX", "SUM"))
    return session


def assert_same_frame(got, want):
    assert (got.columns, got.query, got.rows) == (
        want.columns, want.query, want.rows)


AGGREGATE_MIXES = {"sum": (("SUM",), False), "min-max": (("MIN", "MAX"), False),
                   "sum-counted": (("SUM",), True),
                   "avg-sum-count": (("AVG", "SUM", "COUNT"), False),
                   "avg-counted": (("AVG",), True)}


@pytest.mark.parametrize("mix", AGGREGATE_MIXES)
@pytest.mark.parametrize("engine", ENGINES)
def test_a_grouping_column_goes_by_its_g_press(engine, mix):
    """The §5.1 remove action on an Answer Frame's grouping column is
    its G button pressed again, then ``run``: on every engine and for
    every kind of aggregate the answer is the coarser query's, what a
    state pressed with the kept columns alone answers."""
    ops, with_count = AGGREGATE_MIXES[mix]
    session = invoices_state((BRANCH, BRAND), ops, with_count)
    fine = session.run(engine)
    press_g(session, BRAND)
    coarse = session.run(engine)
    assert len(coarse) < len(fine)
    assert_same_frame(
        coarse, invoices_state((BRANCH,), ops, with_count).run(engine))


@pytest.mark.parametrize("first, second, kept", (
    (BRAND, BRANCH, MONTH), (MONTH, BRAND, BRANCH), (BRANCH, MONTH, BRAND)))
@pytest.mark.parametrize("engine", ENGINES)
def test_two_removals_in_a_row(engine, first, second, kept):
    """Two G presses undone one after the other, in any order, leave
    the frame of the state pressed with the third column alone."""
    ops = ("AVG", "SUM", "MIN", "MAX")
    session = invoices_state((BRANCH, BRAND, MONTH), ops, True)
    session.run(engine)
    press_g(session, first)
    assert session.run(engine).grouping_columns == tuple(
        c for c in (BRANCH, BRAND, MONTH) if c != first)
    press_g(session, second)
    assert_same_frame(session.run(engine),
                      invoices_state((kept,), ops, True).run(engine))


@pytest.mark.parametrize("engine", ENGINES)
def test_removing_every_grouping_gives_the_total(engine):
    """With all three G presses undone the answer is the ε grouping's:
    one row of totals, what a state with no G press answers."""
    ops = ("AVG", "SUM", "MIN", "MAX")
    session = invoices_state((BRANCH, BRAND, MONTH), ops, True)
    session.run(engine)
    for column in (BRAND, MONTH, BRANCH):
        press_g(session, column)
    total = session.run(engine)
    assert total.grouping_columns == ()
    assert len(total) == 1
    assert_same_frame(total, invoices_state((), ops, True).run(engine))


@pytest.mark.parametrize("engine", ENGINES)
def test_a_multivalued_grouping_goes_without_double_counting(engine):
    """When the removed attribute is multi-valued the coarser answer
    still counts each item once: ``a`` is red and blue, and maker ``m``
    totals 30 over 2 items, not the 40 over 3 that adding up the finer
    frame's rows gives."""
    session = colours_state()
    assert len(session.run(engine)) == 3
    session.group_by((EX.colour,))
    coarse = session.run(engine)
    assert coarse.rows == [(EX.m, Literal.of(30), Literal.of(2)),
                           (EX.n, Literal.of(5), Literal.of(1))]
    assert coarse.rows == session.run("row").rows


@pytest.mark.parametrize("engine", ENGINES)
def test_a_removal_keeps_integer_and_double_parts_apart(engine):
    """Over integer and double parts the coarser MIN, MAX and SUM are
    the fresh query's, and a sum of integers stays an integer."""
    session = readings_state()
    assert len(session.run(engine)) == 6
    session.group_by((EX.shift,))
    coarse = session.run(engine)
    assert [row[1:] for row in coarse.rows] == [
        (Literal.of(1), Literal.of(3), Literal.of(6)),
        (Literal.of(1.5), Literal.of(4), Literal.of(7.5)),
        (Literal.of(0.25), Literal.of(7), Literal.of(7.25))]
    assert coarse.rows[0][3].datatype == XSD.integer.value
    assert coarse.rows[1][3].datatype == XSD.double.value
