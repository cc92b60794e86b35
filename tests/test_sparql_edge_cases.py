"""Edge-case tests of the SPARQL engine: scoping, errors, odd inputs."""

import pytest

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.rdf.turtle import parse
from repro.sparql import parse_query, query
from repro.sparql.errors import SparqlParseError


@pytest.fixture()
def g():
    return parse(
        """
        @prefix ex: <http://www.ics.forth.gr/example#> .
        ex:a ex:p 1 . ex:a ex:q "one" .
        ex:b ex:p 2 .
        ex:c ex:q "three"@en .
        ex:d ex:p 2.5 .
        """
    )


class TestParserEdgeCases:
    def test_empty_where(self, g):
        res = query(g, "SELECT ?x WHERE { }")
        assert len(res) == 1 and "x" not in res[0]

    def test_deeply_nested_groups(self, g):
        res = query(g, "SELECT ?s WHERE { { { { ?s ex:p ?v } } } }")
        assert len(res) == 3

    def test_unclosed_brace(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT ?s WHERE { ?s ?p ?o")

    def test_missing_projection(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT WHERE { ?s ?p ?o }")

    def test_bad_limit(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT many")

    def test_keyword_case_insensitive(self, g):
        res = query(g, "select ?s where { ?s ex:p ?v } order by ?s limit 1")
        assert len(res) == 1

    def test_semicolon_and_comma_mix(self, g):
        q = parse_query("SELECT ?s WHERE { ?s ex:p 1, 2 ; ex:q ?x . }")
        assert len(q.where.children) == 3

    def test_modifiers_in_any_order(self, g):
        q = parse_query(
            "SELECT ?s WHERE { ?s ex:p ?v } LIMIT 5 ORDER BY ?v"
        )
        assert q.limit == 5 and q.order_by

    def test_negative_number_literal(self, g):
        g.add(EX.e, EX.p, Literal.of(-7))
        res = query(g, "SELECT ?s WHERE { ?s ex:p -7 }")
        assert [row["s"] for row in res] == [EX.e]

    def test_language_tagged_matching(self, g):
        res = query(g, 'SELECT ?s WHERE { ?s ex:q "three"@en }')
        assert [row["s"] for row in res] == [EX.c]
        res = query(g, 'SELECT ?s WHERE { ?s ex:q "three" }')
        assert len(res) == 0  # plain literal != language-tagged


class TestFilterScoping:
    def test_filter_applies_to_whole_group(self, g):
        # FILTER placed before the pattern it constrains still applies.
        res = query(g, "SELECT ?s WHERE { FILTER(?v > 1) ?s ex:p ?v }")
        assert {row["s"] for row in res} == {EX.b, EX.d}

    def test_filter_inside_optional_only_limits_optional(self, g):
        res = query(
            g,
            "SELECT ?s ?w WHERE { ?s ex:p ?v "
            "OPTIONAL { ?s ex:q ?w FILTER(?v < 0) } }",
        )
        assert len(res) == 3
        assert all("w" not in row for row in res)

    @pytest.mark.parametrize("condition, rows", [
        ("?v = 1", 0),
        ("!BOUND(?v)", 1),
        ("EXISTS { ?v ex:q ?z }", 1),
    ])
    def test_nested_group_filter_reads_only_its_group(self, condition, rows):
        """A nested group is evaluated on its own and then joined: ``?v``,
        which only the outer pattern binds, is unbound in its FILTER."""
        g = parse("@prefix ex: <http://www.ics.forth.gr/example#> . "
                  "ex:a ex:p 1 ; ex:q ex:b .")
        res = query(g, "SELECT * WHERE { ?x ex:p ?v "
                       f"{{ ?x ex:q ?w FILTER({condition}) }} }}")
        assert len(res) == rows

    def test_nested_group_filter_reads_what_its_group_binds(self, g):
        """A variable the nested group binds as well stays visible."""
        res = query(g, "SELECT ?s WHERE { ?s ex:p ?v "
                       "{ ?s ex:p ?v FILTER(?v > 1) } }")
        assert {row["s"] for row in res} == {EX.b, EX.d}

    @pytest.mark.parametrize("inner, rows", [
        # the OPTIONAL binds ?v to ex:b, which the outer 1 does not join
        ("OPTIONAL { ?x ex:q ?v }", []),
        # its FILTER reads ?v unbound: ?z stays unbound
        ("OPTIONAL { ?w ex:r ?z FILTER(?v = 1) }", [{"v", "w", "x"}]),
        # a MINUS inside shares ?x alone with its group: the row goes
        ("MINUS { ?x ex:q ?v }", []),
        # a BIND inside reads ?v unbound: ?u stays unbound
        ("BIND(?v AS ?u)", [{"v", "w", "x"}]),
    ])
    def test_nested_group_operators_see_only_their_group(self, inner, rows):
        """A nested group holding an OPTIONAL, MINUS or BIND is
        evaluated on its own, then joined (SPARQL 1.1's algebra): what
        the outer pattern binds is unbound inside it."""
        g = parse("@prefix ex: <http://www.ics.forth.gr/example#> . "
                  "ex:a ex:p 1 ; ex:q ex:b . ex:b ex:r ex:c .")
        res = query(g, "SELECT * WHERE { ?x ex:p ?v "
                       f"{{ ?x ex:q ?w {inner} }} }}")
        assert [set(row.keys()) for row in res] == rows

    def test_union_branch_with_an_optional_is_evaluated_on_its_own(self):
        g = parse("@prefix ex: <http://www.ics.forth.gr/example#> . "
                  "ex:a ex:p 1 ; ex:q ex:b .")
        res = query(g, "SELECT * WHERE { ?x ex:p ?v "
                       "{ ?x ex:q ?w OPTIONAL { ?x ex:q ?v } } "
                       "UNION { ?x ex:q ?w } }")
        assert [(row["x"], row["v"], row["w"]) for row in res] == [
            (EX.a, Literal.of(1), EX.b)]

    def test_union_branch_filter_reads_only_its_branch(self, g):
        res = query(g, "SELECT * WHERE { ?s ex:p ?v "
                       "{ ?s ex:q ?w } UNION { ?s ex:q ?w FILTER(BOUND(?v)) } }")
        assert [(row["s"], row["w"]) for row in res] == [(EX.a, Literal("one"))]

    def test_filter_on_mixed_numeric_types(self, g):
        res = query(g, "SELECT ?s WHERE { ?s ex:p ?v FILTER(?v > 2) }")
        assert {row["s"] for row in res} == {EX.d}

    def test_nested_optional(self, g):
        res = query(
            g,
            "SELECT ?s WHERE { ?s ex:p ?v OPTIONAL { ?s ex:q ?w "
            "OPTIONAL { ?s ex:r ?z } } }",
        )
        assert len(res) == 3


class TestAggregateEdgeCases:
    def test_avg_of_mixed_int_float(self, g):
        res = query(g, "SELECT (AVG(?v) AS ?a) WHERE { ?s ex:p ?v }")
        assert res[0].value("a") == pytest.approx((1 + 2 + 2.5) / 3)

    def test_sum_skips_error_values(self, g):
        # ex:q values are strings: SUM over a mixed var skips them?
        # Per spec SUM errors; we follow the lenient route of skipping
        # unbound/error rows but numeric-only input here:
        res = query(
            g,
            "SELECT (SUM(?v) AS ?t) WHERE { ?s ex:p ?v }",
        )
        assert res[0].value("t") == 5.5

    def test_min_max_over_strings(self, g):
        res = query(
            g,
            "SELECT (MIN(?w) AS ?lo) (MAX(?w) AS ?hi) WHERE { ?s ex:q ?w }",
        )
        assert res[0]["lo"].lexical in ("one", "three")
        assert res[0]["hi"].lexical in ("one", "three")

    def test_count_distinct_vs_plain(self, g):
        res = query(
            g,
            "SELECT (COUNT(?v) AS ?n) (COUNT(DISTINCT ?v) AS ?d) "
            "WHERE { ?s ex:p ?v }",
        )
        assert res[0].value("n") == 3 and res[0].value("d") == 3

    def test_group_by_unbound_key(self, g):
        res = query(
            g,
            "SELECT ?w (COUNT(*) AS ?n) WHERE { ?s ex:p ?v "
            "OPTIONAL { ?s ex:q ?w } } GROUP BY ?w",
        )
        # one group for 'one', one for the unbound key
        assert len(res) == 2

    def test_having_without_group_by(self, g):
        res = query(
            g,
            "SELECT (SUM(?v) AS ?t) WHERE { ?s ex:p ?v } HAVING (SUM(?v) > 100)",
        )
        assert len(res) == 0

    def test_aggregate_inside_arithmetic(self, g):
        res = query(
            g, "SELECT (SUM(?v) * 2 AS ?double) WHERE { ?s ex:p ?v }"
        )
        assert res[0].value("double") == 11.0


class TestOrderingEdgeCases:
    def test_order_by_mixed_kinds(self, g):
        res = query(
            g,
            "SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o",
        )
        values = [row["o"] for row in res]
        assert values == sorted(values, key=lambda t: t.sort_key())

    def test_order_by_unbound_first(self, g):
        res = query(
            g,
            "SELECT ?s ?w WHERE { ?s ex:p ?v OPTIONAL { ?s ex:q ?w } } "
            "ORDER BY ?w",
        )
        assert "w" not in res[0]  # unbound sorts first

    def test_order_by_expression(self, g):
        res = query(
            g, "SELECT ?s WHERE { ?s ex:p ?v } ORDER BY DESC(?v * 2)"
        )
        assert res[0]["s"] == EX.d

    def test_offset_beyond_result(self, g):
        res = query(g, "SELECT ?s WHERE { ?s ex:p ?v } OFFSET 100")
        assert len(res) == 0


class TestConstructAskEdgeCases:
    def test_construct_deduplicates(self, g):
        out = query(
            g, "CONSTRUCT { ex:one ex:flag true } WHERE { ?s ex:p ?v }"
        )
        assert len(out) == 1  # same triple instantiated thrice

    def test_construct_skips_unbound(self, g):
        out = query(
            g,
            "CONSTRUCT { ?s ex:w ?w } WHERE { ?s ex:p ?v "
            "OPTIONAL { ?s ex:q ?w } }",
        )
        assert len(out) == 1  # only ex:a has a ?w

    def test_construct_literal_subject_skipped(self, g):
        out = query(
            g, "CONSTRUCT { ?v ex:from ?s } WHERE { ?s ex:p ?v }"
        )
        assert len(out) == 0  # ?v binds to literals: invalid subjects

    def test_ask_with_filter(self, g):
        assert query(g, "ASK { ?s ex:p ?v FILTER(?v > 2) }") is True
        assert query(g, "ASK { ?s ex:p ?v FILTER(?v > 100) }") is False


class TestValuesEdgeCases:
    def test_values_with_undef_join(self, g):
        res = query(
            g,
            "SELECT ?s ?v WHERE { VALUES (?s ?v) { (ex:a UNDEF) (UNDEF 2) } "
            "?s ex:p ?v }",
        )
        pairs = {(row["s"], row.value("v")) for row in res}
        assert pairs == {(EX.a, 1), (EX.b, 2)}

    def test_values_after_patterns(self, g):
        res = query(
            g, "SELECT ?s WHERE { ?s ex:p ?v VALUES ?v { 2 } }"
        )
        assert [row["s"] for row in res] == [EX.b]

    def test_a_term_the_store_never_saw_matches_nothing(self, g):
        """A VALUES or BIND term the store never interned has no id: the
        solution it binds joins with nothing in the next block, and an
        OPTIONAL keeps it unextended."""
        for bind in ("VALUES ?s { ex:a ex:nowhere }",
                     "VALUES ?s { ex:nowhere ex:a }",
                     "BIND(ex:nowhere AS ?s)"):
            res = query(g, f"SELECT ?s ?v WHERE {{ {bind} ?s ex:p ?v }}")
            assert ({row["s"] for row in res}
                    == ({EX.a} if "ex:a" in bind else set()))
            res = query(g, f"SELECT ?s ?v WHERE {{ {bind} "
                           "OPTIONAL { ?s ex:p ?v } }")
            assert EX.nowhere in {row["s"] for row in res}
            for row in res:
                assert ("v" in row) == (row["s"] == EX.a)
