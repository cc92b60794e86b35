"""Tests of the Feature Creation Operators (Table 4.1)."""

import pytest

from repro.rdf import Graph
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.hifun import (
    apply_feature,
    fco_average_degree,
    fco_count,
    fco_degree,
    fco_exists,
    fco_path_count,
    fco_path_exists,
    fco_path_max_freq,
    fco_value,
    fco_values_as_features,
)
from repro.hifun.features import feature_iri


@pytest.fixture()
def g():
    graph = Graph()
    # brand founded by two persons; one person founded two brands
    graph.add(EX.acme, EX.founder, EX.alice)
    graph.add(EX.acme, EX.founder, EX.bob)
    graph.add(EX.alice, EX.birthplace, EX.FR)
    graph.add(EX.bob, EX.birthplace, EX.FR)
    graph.add(EX.solo, EX.founder, EX.alice)
    graph.add(EX.alice, EX.age, Literal.of(50))
    return graph


class TestSingleValueOperators:
    def test_fco1_value(self, g):
        op = fco_value(EX.age)
        assert op.value(g, EX.alice) == Literal.of(50)
        assert op.value(g, EX.bob) is None

    def test_fco1_default_repairs_missing(self, g):
        op = fco_value(EX.age, default=Literal.of(0))
        assert op.value(g, EX.bob) == Literal.of(0)

    def test_fco2_exists_both_directions(self, g):
        op = fco_exists(EX.founder)
        assert op.value(g, EX.acme) == Literal.of(1)    # subject side
        assert op.value(g, EX.alice) == Literal.of(1)   # object side
        assert op.value(g, EX.FR) == Literal.of(0)

    def test_fco3_count(self, g):
        op = fco_count(EX.founder)
        assert op.value(g, EX.acme) == Literal.of(2)
        assert op.value(g, EX.solo) == Literal.of(1)
        assert op.value(g, EX.FR) == Literal.of(0)


class TestMultiValueOperator:
    def test_fco4_values_as_features(self, g):
        op = fco_values_as_features(EX.founder)
        results = op(g, EX.acme)
        suffixes = {suffix for suffix, _ in results}
        assert suffixes == {"alice", "bob"}
        assert all(value == Literal.of(1) for _, value in results)


class TestDegreeOperators:
    def test_fco5_degree(self, g):
        op = fco_degree()
        # alice: object of 2 founder triples + subject of birthplace + age
        assert op.value(g, EX.alice) == Literal.of(4)

    def test_fco6_average_degree(self, g):
        op = fco_average_degree()
        value = op.value(g, EX.solo)
        assert value.to_python() == pytest.approx(4.0)  # alice's degree / 1

    def test_fco6_no_neighbours(self, g):
        op = fco_average_degree()
        assert op.value(g, EX.FR).to_python() == 0.0


class TestPathOperators:
    def test_fco7_path_exists(self, g):
        op = fco_path_exists(EX.founder, EX.birthplace)
        assert op.value(g, EX.acme) == Literal.of(1)
        assert op.value(g, EX.FR) == Literal.of(0)

    def test_fco8_path_count_distinct_endpoints(self, g):
        op = fco_path_count(EX.founder, EX.birthplace)
        assert op.value(g, EX.acme) == Literal.of(1)  # both born in FR

    def test_fco9_max_freq(self, g):
        g.add(EX.bob, EX.birthplace, EX.DE)
        op = fco_path_max_freq(EX.founder, EX.birthplace)
        assert op.value(g, EX.acme) == EX.FR  # FR twice, DE once

    def test_fco9_tie_breaks_deterministically(self, g):
        g2 = Graph()
        g2.add(EX.x, EX.p1, EX.m)
        g2.add(EX.m, EX.p2, EX.a)
        g2.add(EX.m, EX.p2, EX.b)
        op = fco_path_max_freq(EX.p1, EX.p2)
        assert op.value(g2, EX.x) == EX.a  # smallest term wins the tie

    def test_fco9_empty(self, g):
        op = fco_path_max_freq(EX.age, EX.birthplace)
        assert op.value(g, EX.alice) is None


class TestMaterialization:
    def test_apply_feature_produces_triples(self, g):
        op = fco_count(EX.founder)
        derived = apply_feature(g, [EX.acme, EX.solo], op)
        prop = feature_iri(op)
        assert (EX.acme, prop, Literal.of(2)) in derived
        assert (EX.solo, prop, Literal.of(1)) in derived

    def test_materialized_feature_is_hifun_ready(self, g):
        """The §4.2.6 repair: a multi-valued property becomes functional."""
        op = fco_count(EX.founder)
        merged = g.union(apply_feature(g, [EX.acme, EX.solo], op))
        prop = feature_iri(op)
        assert {brand: list(merged.objects(brand, prop))
                for brand in (EX.acme, EX.solo)} == {
            EX.acme: [Literal.of(2)], EX.solo: [Literal.of(1)]}

    def test_fco4_materializes_one_property_per_value(self, g):
        op = fco_values_as_features(EX.founder)
        derived = apply_feature(g, [EX.acme], op)
        assert len(derived.all_predicates()) == 2

    def test_apply_feature_into_target(self, g):
        target = Graph()
        result = apply_feature(g, [EX.acme], fco_degree(), target=target)
        assert result is target and len(target) == 1
