"""SPARQL AST lint: one negative test per ``S0xx`` code, positives for
the clean path, and position propagation from text."""

import pytest

from repro.analysis import Severity, lint_sparql
from repro.rdf import Graph
from repro.rdf.terms import IRI, Literal
from repro.sparql import query
from repro.sparql.parser import parse_query


def codes(text):
    return lint_sparql(text).codes()


# -- clean queries -------------------------------------------------------
def test_clean_select_has_no_diagnostics():
    report = lint_sparql(
        "SELECT ?s ?o WHERE { ?s <urn:p> ?o . FILTER(?o > 1) }"
    )
    assert report.clean, report.render()


def test_clean_aggregate_query():
    report = lint_sparql(
        "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <urn:p> ?o } GROUP BY ?s"
    )
    assert report.clean, report.render()


def test_lint_accepts_parsed_ast():
    parsed = parse_query("SELECT ?nope WHERE { ?s <urn:p> ?o }")
    report = lint_sparql(parsed)
    assert "S002" in report.codes()


# -- S000: parse failure -------------------------------------------------
def test_s000_parse_error_carries_position():
    report = lint_sparql("SELECT ?x WHERE { ?x <urn:p> ")
    (diag,) = report.errors
    assert diag.code == "S000"
    assert diag.line >= 1, "parse diagnostics must carry a position"


# -- S001: never-bound / use-before-bind ---------------------------------
def test_s001_filter_on_unbound_variable():
    assert "S001" in codes(
        "SELECT ?s WHERE { ?s <urn:p> ?o . FILTER(?missing > 1) }"
    )


def test_s001_bind_use_before_bind():
    report = lint_sparql(
        "SELECT ?s WHERE { BIND(?o + 1 AS ?b) ?s <urn:p> ?o }"
    )
    assert "S001" in report.codes(), report.render()
    assert any("later" in d.message for d in report.errors)


def test_s001_positions_point_at_the_variable():
    report = lint_sparql(
        "SELECT ?s\nWHERE { ?s <urn:p> ?o .\n  FILTER(?missing > 1) }"
    )
    diag = next(d for d in report.errors if d.code == "S001")
    assert diag.line == 3


def test_s001_group_by_unknown_variable():
    assert "S001" in codes(
        "SELECT (COUNT(?s) AS ?n) WHERE { ?s <urn:p> ?o } GROUP BY ?ghost"
    )


# -- S002: never-bound projection ----------------------------------------
def test_s002_never_bound_projection():
    assert "S002" in codes("SELECT ?nope WHERE { ?s <urn:p> ?o }")


def test_s002_optional_binding_counts_as_bound():
    report = lint_sparql(
        "SELECT ?x WHERE { ?s <urn:p> ?o . OPTIONAL { ?s <urn:q> ?x } }"
    )
    assert "S002" not in report.codes(), report.render()


# -- S003: provably false FILTER -----------------------------------------
def test_s003_constant_false_filter():
    assert "S003" in codes("SELECT ?s WHERE { ?s <urn:p> ?o . FILTER(1 > 2) }")


def test_s003_contradictory_equalities():
    assert "S003" in codes(
        "SELECT ?s WHERE { ?s <urn:p> ?o . FILTER(?o = 1 && ?o = 2) }"
    )


def test_s003_satisfiable_filter_is_clean():
    assert "S003" not in codes(
        "SELECT ?s WHERE { ?s <urn:p> ?o . FILTER(?o = 1 || ?o = 2) }"
    )


DATE = '"2020-01-01"^^<http://www.w3.org/2001/XMLSchema#date>'
DATETIME = ('"2020-01-01T00:00:00"'
            '^^<http://www.w3.org/2001/XMLSchema#dateTime>')


@pytest.mark.parametrize("condition", [
    f"{DATE} = {DATETIME}",
    f"{DATE} != {DATETIME}",
    "true = 1",
    "true != 1",
    "1 > 2",
    "?o = 1 && ?o = 2",
    "?o = 1 || ?o = 2",
    "<urn:o>",
    '!(1 < "a")',
    '1 < "a" || true',
])
def test_s003_iff_the_evaluator_drops_every_row(condition):
    """S003 folds with the evaluator's comparison and effective boolean
    value, so it reports a FILTER exactly when evaluating it over a
    one-triple graph keeps nothing."""
    graph = Graph()
    graph.add(IRI("urn:s"), IRI("urn:p"), Literal.of(1))
    text = f"SELECT ?s WHERE {{ ?s <urn:p> ?o . FILTER({condition}) }}"
    assert ("S003" in codes(text)) == (len(query(graph, text)) == 0)


# -- S004: cartesian-product BGP -----------------------------------------
def test_s004_disconnected_patterns_warn():
    report = lint_sparql(
        "SELECT ?a ?c WHERE { ?a <urn:p> ?b . ?c <urn:q> ?d }"
    )
    diag = next(d for d in report.diagnostics if d.code == "S004")
    assert diag.severity == Severity.WARNING
    assert report.ok, "a warning must not fail the query"


def test_s004_filter_connection_suppresses_warning():
    report = lint_sparql(
        "SELECT ?a ?c WHERE { ?a <urn:p> ?b . ?c <urn:q> ?d . "
        "FILTER(?b = ?d) }"
    )
    assert "S004" not in report.codes(), report.render()


# -- S005: bare non-key projection in aggregating query ------------------
def test_s005_bare_projection_that_is_not_a_group_key():
    report = lint_sparql(
        "SELECT ?o (COUNT(?s) AS ?n) WHERE "
        "{ ?s <urn:p> ?o . ?s <urn:r> ?k } GROUP BY ?k"
    )
    assert "S005" in report.codes(), report.render()
    assert report.ok


def test_s005_group_key_projection_is_clean():
    assert "S005" not in codes(
        "SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s <urn:p> ?o } GROUP BY ?o"
    )


# -- structure: nested scopes --------------------------------------------
def test_union_branches_are_linted():
    report = lint_sparql(
        "SELECT ?s WHERE { { ?s <urn:p> ?o } UNION "
        "{ ?s <urn:q> ?v . FILTER(?ghost > 1) } }"
    )
    assert "S001" in report.codes(), report.render()


def test_subselect_star_exports_inner_bindings():
    report = lint_sparql(
        "SELECT ?s ?o WHERE { { SELECT * WHERE { ?s <urn:p> ?o } } }"
    )
    assert report.clean, report.render()
