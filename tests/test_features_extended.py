"""Tests of the §4.2.6 extension operator and CLI pivot/transform."""

import pytest

from repro.rdf import Graph
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.datasets import museum_graph, products_graph
from repro.app import AnalyticsShell
from repro.hifun import fco_path_aggregate


@pytest.fixture()
def founders_graph():
    """The §4.2.6 example: brands with multiple founders and birth years."""
    g = Graph()
    g.add(EX.acme, EX.founder, EX.alice)
    g.add(EX.acme, EX.founder, EX.bob)
    g.add(EX.solo, EX.founder, EX.carol)
    g.add(EX.alice, EX.birthYear, Literal.of(1950))
    g.add(EX.bob, EX.birthYear, Literal.of(1960))
    g.add(EX.carol, EX.birthYear, Literal.of(1980))
    return g


class TestPathAggregateOperator:
    def test_average_birth_year(self, founders_graph):
        """The dissertation's exact example: each brand gets the average
        birth year of its founders."""
        op = fco_path_aggregate(EX.founder, EX.birthYear, "AVG")
        assert op.value(founders_graph, EX.acme).to_python() == 1955.0
        assert op.value(founders_graph, EX.solo).to_python() == 1980.0

    def test_min_max_sum(self, founders_graph):
        assert fco_path_aggregate(EX.founder, EX.birthYear, "MIN").value(
            founders_graph, EX.acme
        ).to_python() == 1950
        assert fco_path_aggregate(EX.founder, EX.birthYear, "MAX").value(
            founders_graph, EX.acme
        ).to_python() == 1960
        assert fco_path_aggregate(EX.founder, EX.birthYear, "SUM").value(
            founders_graph, EX.acme
        ).to_python() == 3910

    def test_count(self, founders_graph):
        op = fco_path_aggregate(EX.founder, EX.birthYear, "COUNT")
        assert op.value(founders_graph, EX.acme).to_python() == 2
        assert op.value(founders_graph, EX.alice).to_python() == 0

    def test_missing_path_yields_nothing_for_avg(self, founders_graph):
        op = fco_path_aggregate(EX.founder, EX.birthYear, "AVG")
        assert op.value(founders_graph, EX.alice) is None

    def test_repairs_multivalued_for_hifun(self, founders_graph):
        """The derived property has exactly one value per brand."""
        from repro.hifun import apply_feature
        from repro.hifun.features import feature_iri

        op = fco_path_aggregate(EX.founder, EX.birthYear, "AVG")
        merged = founders_graph.union(
            apply_feature(founders_graph, [EX.acme, EX.solo], op)
        )
        prop = feature_iri(op)
        assert {brand: [v.to_python() for v in merged.objects(brand, prop)]
                for brand in (EX.acme, EX.solo)} == {
            EX.acme: [1955.0], EX.solo: [1980.0]}


class TestShellPivotAndTransform:
    def test_pivot_command(self):
        shell = AnalyticsShell(museum_graph())
        shell.execute("select painting")
        out = shell.execute("pivot creator")
        assert "3 objects" in out

    def test_pivot_then_group(self):
        shell = AnalyticsShell(museum_graph())
        outputs = [shell.execute(line) for line in (
            "select painting", "pivot creator", "group movement", "count",
            "run")]
        assert "Mannerism" in outputs[-1]

    def test_transform_count_command(self):
        shell = AnalyticsShell(products_graph())
        shell.execute("select company")
        out = shell.execute("transform count founder")
        assert "founder_count" in out
        facets = shell.execute("facets")
        assert "founder_count" in facets

    def test_transform_degree(self):
        shell = AnalyticsShell(products_graph())
        shell.execute("select laptop")
        out = shell.execute("transform degree")
        assert "degree" in out

    def test_transform_usage_errors(self):
        shell = AnalyticsShell(products_graph())
        assert shell.execute("transform").startswith("error:")
        assert shell.execute("transform count").startswith("error:")
        assert shell.execute("transform frobnicate x").startswith("error:")

    def test_pivot_usage_error(self):
        shell = AnalyticsShell(products_graph())
        assert shell.execute("pivot a b").startswith("error:")
