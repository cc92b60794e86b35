"""Tests of the SPARQL lexer and parser."""

import pytest

from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import IRI
from repro.sparql import ast, parse_query
from repro.sparql.errors import SparqlParseError
from repro.sparql.lexer import tokenize


class TestLexer:
    def test_iriref_vs_less_than(self):
        tokens = tokenize("<http://a> < ?x")
        assert [t.kind for t in tokens] == ["IRIREF", "OP", "VAR"]

    def test_operators(self):
        tokens = tokenize("&& || != <= >= = ! + - * /")
        assert all(t.kind == "OP" for t in tokens)

    def test_strings_with_escapes(self):
        tokens = tokenize(r'"a \"b\""')
        assert tokens[0].kind == "STRING"

    def test_comments_skipped(self):
        tokens = tokenize("SELECT # comment\n ?x")
        assert [t.text for t in tokens] == ["SELECT", "?x"]

    def test_error_position(self):
        with pytest.raises(SparqlParseError) as err:
            tokenize("SELECT @@")
        assert "line 1" in str(err.value)


class TestSelectParsing:
    def test_simple(self):
        q = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
        assert isinstance(q, ast.SelectQuery)
        assert q.projections[0].var == ast.Var("s")
        assert len(q.where.children) == 1

    def test_star(self):
        q = parse_query("SELECT * WHERE { ?s ?p ?o }")
        assert q.is_star

    def test_distinct(self):
        q = parse_query("SELECT DISTINCT ?s WHERE { ?s ?p ?o }")
        assert q.distinct

    def test_prefix_resolution(self):
        q = parse_query(
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:p e:o }"
        )
        pattern = q.where.children[0]
        assert pattern.p == IRI("http://x/p")

    def test_well_known_prefixes_preloaded(self):
        q = parse_query("SELECT ?s WHERE { ?s rdf:type ex:Laptop }")
        pattern = q.where.children[0]
        assert pattern.p == RDF.type
        assert pattern.o == EX.Laptop

    def test_a_keyword(self):
        q = parse_query("SELECT ?s WHERE { ?s a ex:Laptop }")
        assert q.where.children[0].p == RDF.type

    def test_expression_projection_with_as(self):
        q = parse_query(
            "SELECT (AVG(?p) AS ?avg) WHERE { ?s ex:price ?p }"
        )
        projection = q.projections[0]
        assert projection.var == ast.Var("avg")
        assert isinstance(projection.expr, ast.Aggregate)

    def test_bare_aggregate_auto_named(self):
        q = parse_query("SELECT ?b SUM(?q) WHERE { ?s ex:q ?q . ?s ex:b ?b }")
        assert q.projections[1].var.name == "sum_q"

    def test_bare_builtin_auto_named(self):
        q = parse_query("SELECT MONTH(?d) WHERE { ?s ex:d ?d }")
        assert q.projections[0].var.name == "month_d"

    def test_duplicate_auto_names_disambiguated(self):
        q = parse_query("SELECT SUM(?q) SUM(?q) WHERE { ?s ex:q ?q }")
        names = [p.var.name for p in q.projections]
        assert len(set(names)) == 2

    def test_group_by_and_having(self):
        q = parse_query(
            "SELECT ?b (SUM(?q) AS ?t) WHERE { ?s ex:b ?b . ?s ex:q ?q } "
            "GROUP BY ?b HAVING (SUM(?q) > 100)"
        )
        assert q.group_by == (ast.Var("b"),)
        assert len(q.having) == 1

    def test_group_by_function(self):
        q = parse_query(
            "SELECT MONTH(?d) WHERE { ?s ex:d ?d } GROUP BY MONTH(?d)"
        )
        assert isinstance(q.group_by[0], ast.FunctionCall)

    def test_group_by_alias_kept(self):
        q = parse_query("SELECT ?z WHERE { ?x ex:p ?v } "
                        "GROUP BY ?x (?v + 1 AS ?z)")
        assert q.group_by[0] == ast.Var("x")
        assert isinstance(q.group_by[1], ast.Binary)
        assert q.group_aliases == (None, ast.Var("z"))
        assert parse_query("SELECT ?x WHERE { ?x ex:p ?v } "
                           "GROUP BY ?x").group_aliases == ()

    def test_group_by_alias_must_be_a_variable(self):
        with pytest.raises(SparqlParseError) as caught:
            parse_query("SELECT ?z WHERE { ?x ex:p ?v }\n"
                        "GROUP BY (?v + 1 AS 3)")
        assert (caught.value.line, caught.value.column) == (2, 21)

    @pytest.mark.parametrize("text, at", [
        ("SELECT * WHERE { ?a ex:p ?b } GROUP BY (?a AS ?k)", (1, 8)),
        ("SELECT * WHERE { ?a ex:p ?b } GROUP BY ?a", (1, 8)),
        ("SELECT * WHERE { ?a ex:p ?b } HAVING (COUNT(?b) > 1)", (1, 8)),
        ("SELECT * WHERE {\n  { SELECT * WHERE { ?a ex:p ?b } "
         "GROUP BY (?a AS ?k) } }", (2, 12)),
    ], ids=["alias", "key", "having", "sub-select"])
    def test_star_refused_in_an_aggregated_query(self, text, at):
        """SPARQL 1.1 §18.2.4.1: ``SELECT *`` is not allowed with GROUP
        BY (or HAVING), at top level or in a sub-select; the error points
        at the ``*``.  The sub-select once reached the evaluator and
        failed there with a bare ``KeyError: 'k'``."""
        with pytest.raises(SparqlParseError, match="SELECT \\*") as caught:
            parse_query(text)
        assert (caught.value.line, caught.value.column) == at

    def test_order_limit_offset(self):
        q = parse_query(
            "SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) LIMIT 5 OFFSET 2"
        )
        assert q.order_by[0].descending
        assert q.limit == 5 and q.offset == 2

    def test_every_condition_takes_a_function_call(self):
        """FILTER, HAVING, GROUP BY and ORDER BY share SPARQL 1.1's
        Constraint, so each takes a function call (``xsd:integer(?o)``)."""
        call = "xsd:integer(?o)"
        prefix = "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
        ordered = parse_query(
            f"{prefix}SELECT ?s WHERE {{ ?s ?p ?o }} ORDER BY {call} DESC(?s)")
        assert isinstance(ordered.order_by[0].expr, ast.FunctionCall)
        assert ordered.order_by[1].descending
        grouped = parse_query(
            f"{prefix}SELECT (COUNT(?s) AS ?n) WHERE {{ ?s ?p ?o "
            f"FILTER {call} }} GROUP BY {call} HAVING {call} (COUNT(?s) > 1)")
        assert isinstance(grouped.group_by[0], ast.FunctionCall)
        assert len(grouped.having) == 2

    def test_trailing_tokens_rejected(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT ?s WHERE { ?s ?p ?o } garbage")

    def test_unknown_function_rejected(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT ?s WHERE { ?s ?p ?o FILTER(NOSUCH(?s)) }")


class TestPatternParsing:
    def test_filter_comparison(self):
        q = parse_query("SELECT ?s WHERE { ?s ex:p ?v FILTER(?v >= 2) }")
        flt = q.where.children[1]
        assert isinstance(flt, ast.Filter)
        assert flt.condition.op == ">="

    def test_filter_logical(self):
        q = parse_query(
            "SELECT ?s WHERE { ?s ex:p ?v FILTER(?v > 1 && ?v < 9 || !BOUND(?v)) }"
        )
        assert isinstance(q.where.children[1].condition, ast.Binary)

    def test_optional(self):
        q = parse_query("SELECT ?s WHERE { ?s a ex:C OPTIONAL { ?s ex:p ?v } }")
        assert isinstance(q.where.children[1], ast.Optional_)

    def test_union(self):
        q = parse_query(
            "SELECT ?s WHERE { { ?s a ex:A } UNION { ?s a ex:B } UNION { ?s a ex:C } }"
        )
        union = q.where.children[0]
        assert isinstance(union, ast.Union)

    def test_minus(self):
        q = parse_query("SELECT ?s WHERE { ?s a ex:A MINUS { ?s a ex:B } }")
        assert isinstance(q.where.children[1], ast.Minus)

    def test_bind(self):
        q = parse_query("SELECT ?y WHERE { ?s ex:p ?v BIND(?v + 1 AS ?y) }")
        bind = q.where.children[1]
        assert isinstance(bind, ast.Bind)
        assert bind.var == ast.Var("y")

    def test_values_single_var(self):
        q = parse_query("SELECT ?s WHERE { VALUES ?s { ex:a ex:b } ?s ?p ?o }")
        values = q.where.children[0]
        assert isinstance(values, ast.InlineValues)
        assert len(values.rows) == 2

    def test_values_multi_var_with_undef(self):
        q = parse_query(
            "SELECT ?a WHERE { VALUES (?a ?b) { (ex:x UNDEF) (ex:y ex:z) } }"
        )
        values = q.where.children[0]
        assert values.rows[0][1] is None

    def test_subselect(self):
        q = parse_query(
            "SELECT ?b WHERE { { SELECT ?b WHERE { ?s ex:b ?b } } }"
        )
        inner = q.where.children[0]
        if isinstance(inner, ast.GroupPattern):
            inner = inner.children[0]
        assert isinstance(inner, ast.SubSelect)

    def test_property_path_sequence(self):
        q = parse_query("SELECT ?v WHERE { ?s ex:p/ex:q ?v }")
        pattern = q.where.children[0]
        assert isinstance(pattern, ast.PathPattern)
        assert len(pattern.path.steps) == 2

    def test_inverse_path(self):
        q = parse_query("SELECT ?v WHERE { ?s ^ex:p ?v }")
        pattern = q.where.children[0]
        assert isinstance(pattern, ast.PathPattern)
        assert pattern.path.inverse

    def test_predicate_object_lists(self):
        q = parse_query("SELECT ?s WHERE { ?s ex:p ex:a, ex:b ; ex:q ex:c . }")
        assert len(q.where.children) == 3

    def test_blank_node_property_list(self):
        q = parse_query("SELECT ?s WHERE { ?s ex:p [ ex:q ex:o ] }")
        kinds = [type(c) for c in q.where.children]
        assert kinds == [ast.TriplePattern, ast.TriplePattern]

    def test_exists(self):
        q = parse_query(
            "SELECT ?s WHERE { ?s a ex:C FILTER(EXISTS { ?s ex:p ?v }) }"
        )
        assert isinstance(q.where.children[1].condition, ast.ExistsExpr)

    def test_not_exists(self):
        q = parse_query(
            "SELECT ?s WHERE { ?s a ex:C FILTER(NOT EXISTS { ?s ex:p ?v }) }"
        )
        assert q.where.children[1].condition.negated

    def test_in_expression(self):
        q = parse_query(
            "SELECT ?s WHERE { ?s ex:p ?v FILTER(?v IN (1, 2, 3)) }"
        )
        assert isinstance(q.where.children[1].condition, ast.InExpr)


class TestOtherForms:
    def test_ask(self):
        q = parse_query("ASK { ?s a ex:Laptop }")
        assert isinstance(q, ast.AskQuery)

    def test_construct(self):
        q = parse_query(
            "CONSTRUCT { ?s ex:flag true } WHERE { ?s a ex:Laptop }"
        )
        assert isinstance(q, ast.ConstructQuery)
        assert len(q.template) == 1

    def test_aggregate_distinct(self):
        q = parse_query("SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o }")
        assert q.projections[0].expr.distinct

    def test_count_star(self):
        q = parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
        assert q.projections[0].expr.expr is None

    def test_group_concat_separator(self):
        q = parse_query(
            'SELECT (GROUP_CONCAT(?s; SEPARATOR=", ") AS ?all) WHERE { ?s ?p ?o }'
        )
        assert q.projections[0].expr.separator == ", "

    def test_cast_call(self):
        q = parse_query(
            'SELECT ?s WHERE { ?s ex:p ?v FILTER(?v >= xsd:integer("2")) }'
        )
        condition = q.where.children[1].condition
        assert isinstance(condition.right, ast.FunctionCall)
        assert condition.right.name.endswith("integer")
