"""Tests of the §5.1 'Extra Columns' actions on the answer frame."""

import pytest

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.datasets import invoices_graph
from repro.facets import FacetedAnalyticsSession


def build_frame(ops=("SUM",), with_count=False):
    session = FacetedAnalyticsSession(invoices_graph())
    session.select_class(EX.Invoice)
    session.group_by((EX.takesPlaceAt,))
    session.group_by((EX.delivers, EX.brand))
    session.measure((EX.inQuantity,), ops)
    if with_count:
        session.with_count()
    return session.run()


def single_group_frame(ops=("SUM",), with_count=False):
    session = FacetedAnalyticsSession(invoices_graph())
    session.select_class(EX.Invoice)
    session.group_by((EX.takesPlaceAt,))
    session.measure((EX.inQuantity,), ops)
    if with_count:
        session.with_count()
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


class TestDropGroupingColumn:
    def test_sum_reaggregates_to_coarser_query(self):
        fine = build_frame()
        coarse = fine.drop_grouping_column("delivers_brand")
        expected = single_group_frame()
        assert coarse.columns == expected.columns
        assert [tuple(r) for r in coarse.rows] == [tuple(r) for r in expected.rows]

    def test_min_max_reaggregate(self):
        fine = build_frame(("MIN", "MAX"))
        coarse = fine.drop_grouping_column("delivers_brand")
        expected = single_group_frame(("MIN", "MAX"))
        assert [tuple(r) for r in coarse.rows] == [tuple(r) for r in expected.rows]

    def test_count_column_merges(self):
        fine = build_frame(("SUM",), with_count=True)
        coarse = fine.drop_grouping_column("delivers_brand")
        expected = single_group_frame(("SUM",), with_count=True)
        assert [tuple(r) for r in coarse.rows] == [tuple(r) for r in expected.rows]

    def test_avg_with_sum_and_count(self):
        fine = build_frame(("AVG", "SUM", "COUNT"))
        coarse = fine.drop_grouping_column("delivers_brand")
        expected = single_group_frame(("AVG", "SUM", "COUNT"))
        for got, want in zip(coarse.rows, expected.rows):
            assert got[0] == want[0]
            assert float(got[1].to_python()) == pytest.approx(
                float(want[1].to_python())
            )
            assert got[2:] == want[2:]

    def test_avg_alone_rejected(self):
        fine = build_frame(("AVG",))
        with pytest.raises(ValueError):
            fine.drop_grouping_column("delivers_brand")

    def test_avg_with_count_info_allowed(self):
        fine = build_frame(("AVG", "SUM"), with_count=True)
        coarse = fine.drop_grouping_column("delivers_brand")
        expected = single_group_frame(("AVG", "SUM"), with_count=True)
        for got, want in zip(coarse.rows, expected.rows):
            assert float(got[1].to_python()) == pytest.approx(
                float(want[1].to_python())
            )

    def test_non_grouping_column_rejected(self):
        fine = build_frame()
        with pytest.raises(ValueError):
            fine.drop_grouping_column("sum_inQuantity")


ENGINES = ("sparql", "native", "row", "restrictions")

BRANCH, BRAND, MONTH = "takesPlaceAt", "delivers_brand", "month_hasDate"


def engine_frame(engine, columns, ops=("SUM",), with_count=False):
    """The frame ``engine`` answers with when the invoices of at least
    100 items are grouped by the named ``columns`` — a state whose
    intention holds a range filter, so the ``restrictions`` engine has
    something to fold into the query."""
    session = FacetedAnalyticsSession(invoices_graph())
    session.select_class(EX.Invoice)
    session.select_range((EX.inQuantity,), ">=", Literal.of(100))
    presses = {BRANCH: lambda: session.group_by((EX.takesPlaceAt,)),
               BRAND: lambda: session.group_by((EX.delivers, EX.brand)),
               MONTH: lambda: session.derive((EX.hasDate,), "MONTH")}
    for column in columns:
        presses[column]()
    session.measure((EX.inQuantity,), ops)
    session.with_count(with_count)
    return session.run(engine)


def assert_same_frame(got, want):
    """Equal columns, query and rows — an AVG to rounding: a merged
    average is SUM / COUNT, the engine's a running float sum."""
    assert got.columns == want.columns
    assert got.query == want.query
    assert len(got.rows) == len(want.rows)
    averages = [c for op, c in want.aggregate_columns if op == "AVG"]
    for column in want.columns:
        if column in averages:
            assert [v.to_python() for v in got.column(column)] == pytest.approx(
                [v.to_python() for v in want.column(column)])
        else:
            assert got.column(column) == want.column(column), column


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engines_frame_reaggregates(engine):
    """Which engine filled a frame is nothing the frame depends on:
    every expectation of ``TestDropGroupingColumn`` holds on each
    engine's frame, the result is the frame of the coarser query — so
    it can be dropped again — and two drops in a row give what ``run``
    answers in the one-column state."""
    for ops, with_count in (
            (("SUM",), False), (("MIN", "MAX"), False), (("SUM",), True),
            (("AVG", "SUM", "COUNT"), False), (("AVG", "SUM"), True)):
        fine = engine_frame(engine, (BRANCH, BRAND), ops, with_count)
        coarse = fine.drop_grouping_column(BRAND)
        assert_same_frame(
            coarse, engine_frame(engine, (BRANCH,), ops, with_count))
        assert coarse.query.grouping_paths == fine.query.grouping_paths[:1]
        assert coarse.query.grouping_restrictions == \
            fine.query.grouping_restrictions
    with pytest.raises(ValueError):
        engine_frame(engine, (BRANCH, BRAND), ("AVG",)).drop_grouping_column(BRAND)
    with pytest.raises(ValueError):
        engine_frame(engine, (BRANCH, BRAND)).drop_grouping_column("sum_inQuantity")

    ops = ("AVG", "SUM", "MIN", "MAX")
    finest = engine_frame(engine, (BRANCH, BRAND, MONTH), ops, True)
    assert len(finest) > len(engine_frame(engine, (BRANCH, MONTH), ops, True))
    for first, second, kept in ((BRAND, BRANCH, MONTH), (MONTH, BRAND, BRANCH),
                                (BRANCH, MONTH, BRAND)):
        once = finest.drop_grouping_column(first)
        assert once.grouping_columns == tuple(
            c for c in (BRANCH, BRAND, MONTH) if c != first)
        assert_same_frame(once.drop_grouping_column(second),
                          engine_frame(engine, (kept,), ops, True))
    total = finest.drop_grouping_column(BRAND).drop_grouping_column(
        MONTH).drop_grouping_column(BRANCH)
    assert_same_frame(total, engine_frame(engine, (), ops, True))
