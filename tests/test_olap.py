"""Tests of the OLAP layer (Chapter 7): cube, roll-up/drill-down,
slice, dice, pivot — including the Fig. 7.2 month↔year example."""

import pytest

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.datasets import invoices_graph
from repro.hifun import Attribute
from repro.hifun.attributes import Derived
from repro.olap import Cube, Dimension, Hierarchy, dice, drill_down, pivot, roll_up, slice_

takes = Attribute(EX.takesPlaceAt)
qty = Attribute(EX.inQuantity)
has_date = Attribute(EX.hasDate)

TIME = Hierarchy(
    "time",
    (
        ("date", has_date),
        ("month", Derived("MONTH", has_date)),
        ("year", Derived("YEAR", has_date)),
    ),
)


@pytest.fixture()
def cube():
    return Cube(
        invoices_graph(),
        EX.Invoice,
        [Dimension("branch", takes), Dimension("time", hierarchy=TIME)],
        qty,
        "SUM",
        levels={"time": "month"},
    )


def rows(cube):
    return {
        tuple(
            t.local_name() if t.__class__.__name__ == "IRI" else t.to_python()
            for t in key
        ): values["SUM"].to_python()
        for key, values in cube.evaluate().items()
    }


class TestCubeBasics:
    def test_month_view(self, cube):
        table = rows(cube)
        assert table[("branch3", 1)] == 500
        assert table[("branch1", 2)] == 100

    def test_query_shape(self, cube):
        q = cube.query()
        assert len(q.grouping_paths) == 2
        assert q.operations == ("SUM",)

    def test_duplicate_dimension_names_rejected(self):
        with pytest.raises(ValueError):
            Cube(
                invoices_graph(), EX.Invoice,
                [Dimension("d", takes), Dimension("d", qty)],
                qty,
            )

    def test_dimension_needs_exactly_one_spec(self):
        with pytest.raises(ValueError):
            Dimension("bad", attribute=takes, hierarchy=TIME)
        with pytest.raises(ValueError):
            Dimension("bad")

    def test_describe(self, cube):
        assert "time@month" in cube.describe()


class TestRollUpDrillDown:
    def test_fig_7_2_roll_up_month_to_year(self, cube):
        rolled = roll_up(cube, "time")
        table = rows(rolled)
        assert table == {
            ("branch1", 2020): 300,
            ("branch2", 2020): 600,
            ("branch3", 2020): 600,
        }

    def test_drill_down_inverts_roll_up(self, cube):
        rolled = roll_up(cube, "time")
        back = drill_down(rolled, "time")
        assert rows(back) == rows(cube)

    def test_roll_up_totals_preserved(self, cube):
        """Roll-up re-aggregates: totals across groups are invariant."""
        assert sum(rows(cube).values()) == sum(rows(roll_up(cube, "time")).values())

    def test_roll_up_past_top_rejected(self, cube):
        top = roll_up(cube, "time")  # month → year (year is the top level)
        with pytest.raises(ValueError):
            roll_up(top, "time")

    def test_drill_down_past_bottom_rejected(self, cube):
        bottom = drill_down(cube, "time")  # month → date
        with pytest.raises(ValueError):
            drill_down(bottom, "time")

    def test_flat_dimension_cannot_roll(self, cube):
        with pytest.raises(ValueError):
            roll_up(cube, "branch")

    def test_errors_name_the_dimension_and_the_level(self, cube):
        with pytest.raises(ValueError, match=r"^dimension 'time' is already "
                           r"at its coarsest level \(year\)$"):
            roll_up(roll_up(cube, "time"), "time")
        with pytest.raises(ValueError, match=r"^dimension 'time' is already "
                           r"at its finest level \(date\)$"):
            drill_down(drill_down(cube, "time"), "time")
        with pytest.raises(ValueError, match=r"^dimension 'branch' has no "
                           r"hierarchy to roll up$"):
            roll_up(cube, "branch")
        with pytest.raises(ValueError, match=r"^dimension 'branch' has no "
                           r"hierarchy to drill into$"):
            drill_down(cube, "branch")

    def test_original_cube_unchanged(self, cube):
        roll_up(cube, "time")
        assert cube.levels["time"] == "month"


class TestSliceDicePivot:
    def test_slice_drops_dimension(self, cube):
        sliced = slice_(cube, "branch", EX.branch3)
        table = rows(sliced)
        assert table == {(1,): 500, (4,): 100}
        assert sliced.active == ("time",)

    def test_dice_keeps_grouping(self, cube):
        diced = dice(cube, {"branch": EX.branch2})
        table = rows(diced)
        assert set(table) == {("branch2", 1), ("branch2", 3)}

    def test_dice_with_comparator(self, cube):
        yearly = roll_up(cube, "time")
        diced = dice(yearly, {"time": (">=", Literal.of(2020))})
        assert len(rows(diced)) == 3

    def test_pivot_reorders_key(self, cube):
        swapped = pivot(cube, ["time", "branch"])
        table = rows(swapped)
        assert table[(1, "branch3")] == 500

    def test_pivot_requires_permutation(self, cube):
        with pytest.raises(ValueError):
            pivot(cube, ["time"])

    def test_slice_then_rollup_composes(self, cube):
        composed = roll_up(slice_(cube, "branch", EX.branch1), "time")
        assert rows(composed) == {(2020,): 300}
