"""Evaluation tests of the SPARQL engine over the bundled datasets."""

import pytest

from repro.rdf import Graph
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.rdf.turtle import parse
from repro.sparql import query
from repro.sparql.errors import SparqlEvalError


@pytest.fixture()
def g():
    return parse(
        """
        @prefix ex: <http://www.ics.forth.gr/example#> .
        ex:i1 a ex:Invoice ; ex:branch ex:b1 ; ex:qty 200 ; ex:prod ex:p1 .
        ex:i2 a ex:Invoice ; ex:branch ex:b1 ; ex:qty 100 ; ex:prod ex:p2 .
        ex:i3 a ex:Invoice ; ex:branch ex:b2 ; ex:qty 400 ; ex:prod ex:p1 .
        ex:i4 a ex:Invoice ; ex:branch ex:b2 ; ex:qty 200 .
        ex:p1 ex:brand ex:Coke .
        ex:p2 ex:brand ex:Fanta .
        """
    )


class TestBasicMatching:
    def test_single_pattern(self, g):
        res = query(g, "SELECT ?s WHERE { ?s a ex:Invoice }")
        assert len(res) == 4

    def test_join_two_patterns(self, g):
        res = query(g, "SELECT ?s WHERE { ?s ex:branch ex:b1 . ?s ex:qty ?q }")
        assert len(res) == 2

    def test_no_match(self, g):
        res = query(g, "SELECT ?s WHERE { ?s ex:branch ex:nope }")
        assert len(res) == 0

    def test_shared_variable_join(self, g):
        res = query(
            g, "SELECT ?s ?b WHERE { ?s ex:prod ?p . ?p ex:brand ?b }"
        )
        assert len(res) == 3

    def test_variable_predicate(self, g):
        res = query(g, "SELECT DISTINCT ?p WHERE { ex:i1 ?p ?o }")
        assert len(res) == 4  # rdf:type, branch, qty, prod

    def test_same_var_subject_object(self):
        g = Graph([(EX.n, EX.self, EX.n), (EX.n, EX.self, EX.m)])
        res = query(g, "SELECT ?x WHERE { ?x ex:self ?x }")
        assert [row["x"] for row in res] == [EX.n]

    def test_select_star(self, g):
        res = query(g, "SELECT * WHERE { ?s ex:brand ?b }")
        assert set(res.variables) == {"s", "b"}


class TestFilters:
    def test_numeric_comparison(self, g):
        res = query(g, "SELECT ?s WHERE { ?s ex:qty ?q FILTER(?q > 150) }")
        assert len(res) == 3

    def test_equality_and_inequality(self, g):
        res = query(g, "SELECT ?s WHERE { ?s ex:qty ?q FILTER(?q = 200) }")
        assert len(res) == 2
        res = query(g, "SELECT ?s WHERE { ?s ex:qty ?q FILTER(?q != 200) }")
        assert len(res) == 2

    def test_logical_and_or(self, g):
        res = query(
            g,
            "SELECT ?s WHERE { ?s ex:qty ?q FILTER(?q >= 100 && ?q <= 200) }",
        )
        assert len(res) == 3

    def test_error_in_filter_is_false(self, g):
        # brand is an IRI: ordering against a number errors → row dropped.
        res = query(g, "SELECT ?p WHERE { ?p ex:brand ?b FILTER(?b > 5) }")
        assert len(res) == 0

    def test_arithmetic_in_filter(self, g):
        res = query(g, "SELECT ?s WHERE { ?s ex:qty ?q FILTER(?q * 2 > 500) }")
        assert len(res) == 1

    def test_in_operator(self, g):
        res = query(
            g, "SELECT ?s WHERE { ?s ex:qty ?q FILTER(?q IN (100, 400)) }"
        )
        assert len(res) == 2

    def test_not_exists(self, g):
        res = query(
            g,
            "SELECT ?s WHERE { ?s a ex:Invoice FILTER(NOT EXISTS { ?s ex:prod ?p }) }",
        )
        assert [row["s"] for row in res] == [EX.i4]

    def test_bound(self, g):
        res = query(
            g,
            "SELECT ?s WHERE { ?s a ex:Invoice OPTIONAL { ?s ex:prod ?p } "
            "FILTER(!BOUND(?p)) }",
        )
        assert [row["s"] for row in res] == [EX.i4]


class TestOptionalUnionMinus:
    def test_optional_keeps_unmatched(self, g):
        res = query(
            g, "SELECT ?s ?p WHERE { ?s a ex:Invoice OPTIONAL { ?s ex:prod ?p } }"
        )
        assert len(res) == 4
        unbound = [row for row in res if "p" not in row]
        assert len(unbound) == 1

    def test_union(self, g):
        res = query(
            g,
            "SELECT ?x WHERE { { ?x ex:brand ex:Coke } UNION { ?x ex:brand ex:Fanta } }",
        )
        assert len(res) == 2

    def test_minus(self, g):
        res = query(
            g,
            "SELECT ?s WHERE { ?s a ex:Invoice MINUS { ?s ex:branch ex:b1 } }",
        )
        assert {row["s"] for row in res} == {EX.i3, EX.i4}

    def test_bind(self, g):
        res = query(
            g,
            "SELECT ?s ?double WHERE { ?s ex:qty ?q BIND(?q * 2 AS ?double) } "
            "ORDER BY ?s",
        )
        assert res[0].value("double") == 400

    def test_bind_rebinding_rejected(self, g):
        with pytest.raises(SparqlEvalError):
            query(g, "SELECT ?q WHERE { ?s ex:qty ?q BIND(1 AS ?q) }")

    def test_values_join(self, g):
        res = query(
            g,
            "SELECT ?s WHERE { VALUES ?b { ex:b1 } ?s ex:branch ?b }",
        )
        assert len(res) == 2


class TestAggregation:
    def test_group_sum(self, g):
        res = query(
            g,
            "SELECT ?b (SUM(?q) AS ?t) WHERE { ?s ex:branch ?b . ?s ex:qty ?q } "
            "GROUP BY ?b ORDER BY ?b",
        )
        assert [(r["b"].local_name(), r.value("t")) for r in res] == [
            ("b1", 300),
            ("b2", 600),
        ]

    def test_avg_min_max(self, g):
        res = query(
            g,
            "SELECT (AVG(?q) AS ?a) (MIN(?q) AS ?lo) (MAX(?q) AS ?hi) "
            "WHERE { ?s ex:qty ?q }",
        )
        row = res[0]
        assert row.value("a") == 225.0
        assert row.value("lo") == 100
        assert row.value("hi") == 400

    def test_count_star_and_distinct(self, g):
        res = query(
            g,
            "SELECT (COUNT(*) AS ?n) (COUNT(DISTINCT ?b) AS ?nb) "
            "WHERE { ?s ex:branch ?b }",
        )
        assert res[0].value("n") == 4
        assert res[0].value("nb") == 2

    def test_group_concat(self, g):
        res = query(
            g,
            'SELECT (GROUP_CONCAT(?n; SEPARATOR="|") AS ?all) WHERE '
            "{ ?s ex:qty 200 . BIND(STR(?s) AS ?n) }",
        )
        assert "|" in res[0]["all"].lexical

    def test_having(self, g):
        res = query(
            g,
            "SELECT ?b (SUM(?q) AS ?t) WHERE { ?s ex:branch ?b . ?s ex:qty ?q } "
            "GROUP BY ?b HAVING (SUM(?q) > 400)",
        )
        assert [row["b"] for row in res] == [EX.b2]

    def test_empty_group_ungrouped_count(self):
        res = query(Graph(), "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
        assert res[0].value("n") == 0

    def test_empty_group_with_group_by(self):
        res = query(
            Graph(), "SELECT ?b (COUNT(*) AS ?n) WHERE { ?s ex:b ?b } GROUP BY ?b"
        )
        assert len(res) == 0

    def test_sample(self, g):
        res = query(
            g, "SELECT (SAMPLE(?q) AS ?one) WHERE { ?s ex:qty ?q }"
        )
        assert res[0].value("one") in (100, 200, 400)

    def test_group_key_expression_projected(self, g):
        res = query(
            g,
            "SELECT (STR(?b) AS ?name) (COUNT(*) AS ?n) WHERE "
            "{ ?s ex:branch ?b } GROUP BY STR(?b) ORDER BY ?name",
        )
        assert [row.value("n") for row in res] == [2, 2]

    def test_group_by_alias_is_bound(self):
        """``GROUP BY (expr AS ?z)`` binds ``?z`` to each group's key."""
        graph = Graph([(EX.a, EX.p, Literal.of(1)), (EX.b, EX.p, Literal.of(2)),
                       (EX.c, EX.p, Literal.of(2))])
        res = query(graph, "SELECT ?z (COUNT(*) AS ?n) WHERE { ?x ex:p ?v } "
                           "GROUP BY (?v + 1 AS ?z) ORDER BY ?z")
        assert [(row.value("z"), row.value("n")) for row in res] == [
            (2, 1), (3, 2)]
        assert [row.value("z") for row in query(
            graph, "SELECT ?z WHERE { ?x ex:p ?v } GROUP BY (?v + 1 AS ?z) "
                   "HAVING (?z > 2)")] == [3]


class TestModifiers:
    def test_order_asc_desc(self, g):
        asc = query(g, "SELECT ?q WHERE { ?s ex:qty ?q } ORDER BY ?q")
        desc = query(g, "SELECT ?q WHERE { ?s ex:qty ?q } ORDER BY DESC(?q)")
        assert [r.value("q") for r in asc] == sorted(r.value("q") for r in asc)
        assert [r.value("q") for r in desc] == list(
            reversed([r.value("q") for r in asc])
        )

    def test_limit_offset(self, g):
        res = query(
            g, "SELECT ?q WHERE { ?s ex:qty ?q } ORDER BY ?q LIMIT 2 OFFSET 1"
        )
        assert [r.value("q") for r in res] == [200, 200]

    def test_distinct(self, g):
        res = query(g, "SELECT DISTINCT ?q WHERE { ?s ex:qty ?q }")
        assert len(res) == 3


class TestSubqueriesPathsConstruct:
    def test_subquery_filtered_outside(self, g):
        res = query(
            g,
            "SELECT ?b ?t WHERE { { SELECT ?b (SUM(?q) AS ?t) WHERE "
            "{ ?s ex:branch ?b . ?s ex:qty ?q } GROUP BY ?b } FILTER(?t > 400) }",
        )
        assert [row["b"] for row in res] == [EX.b2]

    def test_sequence_path(self, g):
        res = query(g, "SELECT DISTINCT ?b WHERE { ?s ex:prod/ex:brand ?b }")
        assert {row["b"] for row in res} == {EX.Coke, EX.Fanta}

    def test_inverse_path(self, g):
        res = query(g, "SELECT ?s WHERE { ex:b1 ^ex:branch ?s }")
        assert {row["s"] for row in res} == {EX.i1, EX.i2}

    def test_mixed_inverse_sequence(self, g):
        # invoices sharing a branch with i1 (inverse then forward)
        res = query(
            g, "SELECT DISTINCT ?o WHERE { ex:p1 ^ex:prod/ex:branch ?o }"
        )
        assert {row["o"] for row in res} == {EX.b1, EX.b2}

    def test_ask_true_false(self, g):
        assert query(g, "ASK { ?s ex:qty 400 }") is True
        assert query(g, "ASK { ?s ex:qty 9999 }") is False

    def test_construct(self, g):
        out = query(
            g,
            "CONSTRUCT { ?s ex:big true } WHERE { ?s ex:qty ?q FILTER(?q >= 400) }",
        )
        assert len(out) == 1
        assert (EX.i3, EX.big, Literal("true", Literal.of(True).datatype)) in out

    def test_construct_with_bnode_template(self, g):
        out = query(
            g,
            "CONSTRUCT { ?s ex:info [ ] } WHERE { ?s a ex:Invoice }",
        )
        # one fresh bnode per solution
        assert len(out) == 4
        objects = {o for _, _, o in out}
        assert len(objects) == 4
