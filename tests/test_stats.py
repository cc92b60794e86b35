"""Tests of the quality-analytics substrate (category-B queries)."""

import pytest

from repro.rdf import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import Literal
from repro.datasets import SyntheticConfig, products_graph, synthetic_graph
from repro.stats import (
    VOID,
    degree_distribution,
    power_law_fit,
    profile_graph,
    void_graph,
)


@pytest.fixture(scope="module")
def profile():
    return profile_graph(products_graph())


class TestProfile:
    def test_triples_count(self, profile):
        assert profile.triples == len(products_graph())

    def test_distinct_counts_consistent(self, profile):
        g = products_graph()
        assert profile.distinct_subjects == len(g.all_subjects())
        assert profile.distinct_predicates == len(g.all_predicates())
        assert profile.distinct_objects == len(g.all_objects())

    def test_literals_counted(self, profile):
        g = products_graph()
        expected = sum(
            1 for _, _, o in g if o.__class__.__name__ == "Literal"
        )
        assert profile.literals == expected

    def test_class_instances(self, profile):
        assert profile.class_instances[EX.Laptop] == 3
        assert profile.class_instances[EX.Company] == 4

    def test_property_usage(self, profile):
        assert profile.property_usage[EX.manufacturer] == 6  # 3 laptops + 3 drives
        assert profile.property_usage[RDF.type] > 0

    def test_top_lists_sorted(self, profile):
        top = profile.top_properties(3)
        counts = [count for _, count in top]
        assert counts == sorted(counts, reverse=True)

    def test_coverage_query(self, profile):
        """'How many triples does the dataset offer for entity X?'"""
        g = products_graph()
        coverage = profile.coverage(EX.DELL, g)
        # DELL: 4 outgoing (type, origin, founder, size) + 2 laptops +
        # inferred nothing (raw graph) = 4 + 2 incoming manufacturer
        assert coverage == 6


class TestDegreeDistribution:
    def test_histogram_total_matches_resources(self):
        g = Graph()
        g.add(EX.a, EX.p, EX.b)
        g.add(EX.a, EX.p, EX.c)
        g.add(EX.b, EX.p, EX.c)
        hist = degree_distribution(g)
        assert hist == {2: 3}  # a:2 out, b:1+1, c:2 in

    def test_literals_do_not_get_degrees(self):
        g = Graph()
        g.add(EX.a, EX.p, Literal.of(1))
        hist = degree_distribution(g)
        assert hist == {1: 1}


class TestPowerLawFit:
    def test_perfect_power_law_detected(self):
        histogram = {x: int(1000 * x ** -2.0) for x in range(1, 30)}
        fit = power_law_fit(histogram)
        assert fit is not None
        assert fit.alpha == pytest.approx(2.0, abs=0.15)
        assert fit.r_squared > 0.98
        assert fit.looks_power_law

    def test_uniform_distribution_rejected(self):
        histogram = {x: 50 for x in range(1, 30)}
        fit = power_law_fit(histogram)
        assert fit is not None
        assert abs(fit.alpha) < 0.2
        assert not fit.looks_power_law

    def test_too_few_points(self):
        assert power_law_fit({1: 5}) is None
        assert power_law_fit({}) is None

    def test_synthetic_graph_degrees_fit_runs(self):
        g = synthetic_graph(SyntheticConfig(laptops=200, seed=8))
        fit = power_law_fit(degree_distribution(g))
        assert fit is not None and fit.points >= 3


class TestVoidExport:
    def test_dataset_node_statistics(self, profile):
        g = void_graph(profile)
        dataset = next(iter(g.subjects(RDF.type, VOID.Dataset)))
        assert g.value(dataset, VOID.triples, None) == Literal.of(profile.triples)
        assert g.value(dataset, VOID.classes, None) == Literal.of(profile.classes)

    def test_class_partitions(self, profile):
        g = void_graph(profile)
        partitions = list(g.objects(None, VOID.classPartition))
        assert len(partitions) == profile.classes
        laptop_partitions = [
            p for p in partitions if g.value(p, VOID["class"], None) == EX.Laptop
        ]
        assert len(laptop_partitions) == 1
        assert g.value(
            laptop_partitions[0], VOID.entities, None
        ) == Literal.of(3)

    def test_property_partitions(self, profile):
        g = void_graph(profile)
        partitions = list(g.objects(None, VOID.propertyPartition))
        assert len(partitions) == len(profile.property_usage)

    def test_void_output_serializes(self, profile):
        from repro.rdf import turtle

        text = turtle.serialize(void_graph(profile))
        assert "void#Dataset" in text or "void#" in text

    def test_void_output_is_facetable(self, profile):
        """Meta: explore the statistics with the faceted session itself."""
        from repro.facets import FacetedSession

        session = FacetedSession(void_graph(profile))
        facets = {f.prop.name for f in session.all_facets()}
        assert "entities" in facets or "classPartition" in facets
