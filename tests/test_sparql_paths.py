"""Tests of SPARQL 1.1 property paths: / ^ * + ? | and combinations."""

import pytest

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.rdf.turtle import parse
from repro.sparql import query
from repro.sparql.errors import SparqlParseError


@pytest.fixture()
def g():
    return parse(
        """
        @prefix ex: <http://www.ics.forth.gr/example#> .
        ex:A rdfs:subClassOf ex:B .
        ex:B rdfs:subClassOf ex:C .
        ex:C rdfs:subClassOf ex:D .
        ex:x a ex:A .
        ex:y a ex:C .
        ex:p1 ex:knows ex:p2 .
        ex:p2 ex:knows ex:p3 .
        ex:p3 ex:knows ex:p1 .
        ex:p1 ex:likes ex:p4 .
        ex:p4 ex:name "Dora" .
        """
    )


class TestSequenceAndInverse:
    def test_sequence(self, g):
        res = query(g, "SELECT ?n WHERE { ex:p1 ex:likes/ex:name ?n }")
        assert res[0]["n"] == Literal("Dora")

    def test_inverse_step(self, g):
        # x ^p y  ⟺  y p x: ?s ^knows p2 means "p2 knows ?s".
        res = query(g, "SELECT ?s WHERE { ?s ^ex:knows ex:p2 }")
        assert [row["s"] for row in res] == [EX.p3]
        res = query(g, "SELECT ?s WHERE { ex:p2 ^ex:knows ?s }")
        assert [row["s"] for row in res] == [EX.p1]

    def test_inverse_inside_sequence(self, g):
        res = query(g, "SELECT DISTINCT ?z WHERE { ex:p2 ^ex:knows/ex:likes ?z }")
        assert {row["z"] for row in res} == {EX.p4}


class TestQuantifiers:
    def test_one_or_more(self, g):
        res = query(g, "SELECT ?c WHERE { ex:A rdfs:subClassOf+ ?c }")
        assert {row["c"] for row in res} == {EX.B, EX.C, EX.D}

    def test_zero_or_more_includes_start(self, g):
        res = query(g, "SELECT ?c WHERE { ex:A rdfs:subClassOf* ?c }")
        assert {row["c"] for row in res} == {EX.A, EX.B, EX.C, EX.D}

    def test_zero_or_one(self, g):
        res = query(g, "SELECT ?c WHERE { ex:A rdfs:subClassOf? ?c }")
        assert {row["c"] for row in res} == {EX.A, EX.B}

    def test_cycle_terminates(self, g):
        res = query(g, "SELECT ?y WHERE { ex:p1 ex:knows+ ?y }")
        assert {row["y"] for row in res} == {EX.p1, EX.p2, EX.p3}

    def test_star_with_bound_object(self, g):
        res = query(g, "SELECT ?s WHERE { ?s rdfs:subClassOf+ ex:D }")
        assert {row["s"] for row in res} == {EX.A, EX.B, EX.C}

    def test_type_with_subclass_closure(self, g):
        """The classic instance query: ?x rdf:type/rdfs:subClassOf* ?t."""
        res = query(g, "SELECT ?t WHERE { ex:x rdf:type/rdfs:subClassOf* ?t }")
        assert {row["t"] for row in res} == {EX.A, EX.B, EX.C, EX.D}

    def test_fully_bound_check(self, g):
        assert query(g, "ASK { ex:A rdfs:subClassOf+ ex:D }") is True
        assert query(g, "ASK { ex:D rdfs:subClassOf+ ex:A }") is False


class TestAlternatives:
    def test_alternative(self, g):
        res = query(g, "SELECT ?v WHERE { ex:p1 (ex:knows|ex:likes) ?v }")
        assert {row["v"] for row in res} == {EX.p2, EX.p4}

    def test_alternative_with_quantifier(self, g):
        res = query(g, "SELECT ?v WHERE { ex:p1 (ex:knows|ex:likes)+ ?v }")
        assert {row["v"] for row in res} == {EX.p1, EX.p2, EX.p3, EX.p4}

    def test_grouped_sequence(self, g):
        res = query(
            g, "SELECT ?c WHERE { ex:A (rdfs:subClassOf/rdfs:subClassOf) ?c }"
        )
        assert [row["c"] for row in res] == [EX.C]


class TestUnboundEndpoints:
    def test_both_endpoints_variable(self, g):
        res = query(g, "SELECT ?a ?b WHERE { ?a ex:knows+ ?b }")
        pairs = {(row["a"], row["b"]) for row in res}
        assert (EX.p1, EX.p3) in pairs
        assert len(pairs) == 9  # 3 nodes × 3 reachable each

    def test_same_variable_both_ends(self, g):
        res = query(g, "SELECT ?a WHERE { ?a ex:knows+ ?a }")
        assert {row["a"] for row in res} == {EX.p1, EX.p2, EX.p3}

    def test_star_zero_length_reflexivity(self, g):
        res = query(g, "SELECT ?b WHERE { ?b ex:nosuch* ex:p4 }")
        # zero-length: p4 reaches itself even with an unused predicate
        assert EX.p4 in {row["b"] for row in res}


class TestPathParsingErrors:
    def test_inverse_of_group_rejected(self, g):
        with pytest.raises(SparqlParseError):
            query(g, "SELECT ?x WHERE { ?x ^(ex:a/ex:b) ?y }")

    def test_paths_in_construct_template_rejected(self, g):
        with pytest.raises(SparqlParseError):
            query(g, "CONSTRUCT { ?s ex:a/ex:b ?o } WHERE { ?s ?p ?o }")
