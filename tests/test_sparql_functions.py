"""Tests of SPARQL builtin functions, aggregates, casts and the value
model."""

import datetime
import itertools

import pytest

from repro.rdf import Graph
from repro.rdf.namespace import EX
from repro.rdf.terms import IRI, Literal, XSD_DATE, XSD_DATETIME
from repro.sparql import query
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import (
    aggregate, arithmetic, compare, effective_boolean_value, equals)

XSD = "http://www.w3.org/2001/XMLSchema#"


@pytest.fixture()
def g():
    graph = Graph()
    graph.add(EX.s, EX.date, Literal("2021-06-10", XSD_DATE))
    graph.add(EX.s, EX.stamp, Literal("2021-06-10T12:30:45", XSD_DATETIME))
    graph.add(EX.s, EX.name, Literal("RDF Analytics"))
    graph.add(EX.s, EX.num, Literal.of(-3))
    graph.add(EX.s, EX.ratio, Literal.of(2.7))
    return graph


def one(graph, text):
    result = query(graph, text)
    assert len(result) == 1
    return result[0]


class TestTemporalFunctions:
    def test_year_month_day_on_date(self, g):
        row = one(
            g,
            "SELECT (YEAR(?d) AS ?y) (MONTH(?d) AS ?m) (DAY(?d) AS ?dd) "
            "WHERE { ex:s ex:date ?d }",
        )
        assert (row.value("y"), row.value("m"), row.value("dd")) == (2021, 6, 10)

    def test_time_parts_on_datetime(self, g):
        row = one(
            g,
            "SELECT (HOURS(?d) AS ?h) (MINUTES(?d) AS ?m) (SECONDS(?d) AS ?s) "
            "WHERE { ex:s ex:stamp ?d }",
        )
        assert (row.value("h"), row.value("m"), row.value("s")) == (12, 30, 45)

    def test_hours_of_plain_date_is_error(self, g):
        row = query(g, "SELECT (HOURS(?d) AS ?h) WHERE { ex:s ex:date ?d }")
        assert "h" not in row[0]  # expression error → unbound


class TestStringFunctions:
    def test_str_ucase_lcase_strlen(self, g):
        row = one(
            g,
            "SELECT (UCASE(?n) AS ?u) (LCASE(?n) AS ?l) (STRLEN(?n) AS ?len) "
            "WHERE { ex:s ex:name ?n }",
        )
        assert row["u"].lexical == "RDF ANALYTICS"
        assert row["l"].lexical == "rdf analytics"
        assert row.value("len") == 13

    def test_contains_starts_ends(self, g):
        row = one(
            g,
            'SELECT (CONTAINS(?n, "Analy") AS ?c) (STRSTARTS(?n, "RDF") AS ?s) '
            '(STRENDS(?n, "ics") AS ?e) WHERE { ex:s ex:name ?n }',
        )
        assert row.value("c") and row.value("s") and row.value("e")

    def test_substr_and_concat(self, g):
        row = one(
            g,
            'SELECT (SUBSTR(?n, 1, 3) AS ?head) (CONCAT(?n, "!") AS ?x) '
            "WHERE { ex:s ex:name ?n }",
        )
        assert row["head"].lexical == "RDF"
        assert row["x"].lexical.endswith("!")

    def test_strbefore_strafter_replace(self, g):
        row = one(
            g,
            'SELECT (STRBEFORE(?n, " ") AS ?b) (STRAFTER(?n, " ") AS ?a) '
            '(REPLACE(?n, " ", "_") AS ?r) WHERE { ex:s ex:name ?n }',
        )
        assert row["b"].lexical == "RDF"
        assert row["a"].lexical == "Analytics"
        assert row["r"].lexical == "RDF_Analytics"

    def test_regex_flags(self, g):
        row = one(
            g,
            'SELECT (REGEX(?n, "^rdf", "i") AS ?m) WHERE { ex:s ex:name ?n }',
        )
        assert row.value("m") is True

    def test_str_of_iri(self, g):
        row = one(g, "SELECT (STR(ex:s) AS ?s) WHERE { ex:s ex:num ?n }")
        assert row["s"].lexical == EX.s.value


class TestNumericFunctions:
    def test_abs_ceil_floor_round(self, g):
        row = one(
            g,
            "SELECT (ABS(?n) AS ?a) (CEIL(?r) AS ?c) (FLOOR(?r) AS ?f) "
            "(ROUND(?r) AS ?ro) WHERE { ex:s ex:num ?n . ex:s ex:ratio ?r }",
        )
        assert row.value("a") == 3
        assert row.value("c") == 3
        assert row.value("f") == 2
        assert row.value("ro") == 3

    def test_integer_division_stays_exact(self, g):
        row = one(g, "SELECT (?n / 2 AS ?half) WHERE { ex:s ex:num ?n }")
        assert float(row.value("half")) == -1.5

    def test_division_by_zero_is_error(self, g):
        row = query(g, "SELECT (?n / 0 AS ?bad) WHERE { ex:s ex:num ?n }")
        assert "bad" not in row[0]

    @pytest.mark.parametrize("op, expected", [
        ("+", "1.75"), ("-", "1.25"), ("*", "0.375"), ("/", "6.0")])
    def test_a_double_promotes_a_decimal_to_double(self, op, expected):
        # SPARQL 1.1 §17.3: integer → decimal → double, either side.
        decimal = Literal("1.5", XSD + "decimal")
        double = Literal("0.25", XSD + "double")
        assert arithmetic(op, decimal, double) \
            == Literal(expected, XSD + "double")
        assert arithmetic(op, double, decimal).datatype == XSD + "double"

    @pytest.mark.parametrize("op, expected", [
        ("+", "INF"), ("-", "-INF"), ("*", "INF"), ("/", "0.0")])
    def test_an_infinite_double_stays_a_double(self, op, expected):
        answer = arithmetic(op, Literal("1.5", XSD + "decimal"),
                            Literal("1e400", XSD + "double"))
        assert answer == Literal(expected, XSD + "double")
        assert answer.to_python() == float(expected)

    def test_an_integer_promotes_to_decimal_exactly(self):
        answer = arithmetic("+", Literal.of(10 ** 20),
                            Literal("0.1", XSD + "decimal"))
        assert answer == Literal("100000000000000000000.1", XSD + "decimal")


class TestTypeTests:
    def test_isuri_isliteral_isnumeric(self, g):
        row = one(
            g,
            "SELECT (ISURI(ex:s) AS ?u) (ISLITERAL(?n) AS ?l) "
            "(ISNUMERIC(?n) AS ?num) WHERE { ex:s ex:num ?n }",
        )
        assert row.value("u") and row.value("l") and row.value("num")

    def test_datatype_and_lang(self, g):
        row = one(
            g,
            "SELECT (DATATYPE(?n) AS ?dt) (LANG(?n) AS ?lang) "
            "WHERE { ex:s ex:name ?n }",
        )
        assert isinstance(row["dt"], IRI)
        assert row["lang"].lexical == ""

    def test_if_and_coalesce(self, g):
        row = one(
            g,
            "SELECT (IF(?n < 0, \"neg\", \"pos\") AS ?sign) "
            "(COALESCE(?missing, ?n) AS ?c) WHERE { ex:s ex:num ?n }",
        )
        assert row["sign"].lexical == "neg"
        assert row.value("c") == -3

    def test_uri_constructor(self, g):
        row = one(g, 'SELECT (URI("http://x/y") AS ?u) WHERE { ex:s ex:num ?n }')
        assert row["u"] == IRI("http://x/y")


class TestCasts:
    def test_integer_cast_from_string(self, g):
        row = one(
            g, 'SELECT (xsd:integer("42") AS ?i) WHERE { ex:s ex:num ?n }'
        )
        assert row.value("i") == 42

    def test_integer_cast_from_double_truncates(self, g):
        row = one(g, "SELECT (xsd:integer(?r) AS ?i) WHERE { ex:s ex:ratio ?r }")
        assert row.value("i") == 2

    def test_boolean_cast(self, g):
        row = one(g, 'SELECT (xsd:boolean("1") AS ?b) WHERE { ex:s ex:num ?n }')
        assert row.value("b") is True

    def test_date_cast(self, g):
        row = one(
            g, 'SELECT (xsd:date("2021-06-10") AS ?d) WHERE { ex:s ex:num ?n }'
        )
        assert row.value("d") == datetime.date(2021, 6, 10)

    def test_datetime_cast_adds_midnight(self, g):
        row = one(
            g,
            'SELECT (xsd:dateTime("2021-06-10") AS ?d) WHERE { ex:s ex:num ?n }',
        )
        assert row.value("d") == datetime.datetime(2021, 6, 10)

    def test_failed_cast_is_error(self, g):
        row = query(
            g, 'SELECT (xsd:integer("nope") AS ?i) WHERE { ex:s ex:num ?n }'
        )
        assert "i" not in row[0]

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-inf"])
    def test_decimal_cast_of_no_finite_number_is_error(self, g, text):
        row = query(
            g, f'SELECT (xsd:decimal("{text}") AS ?d) WHERE {{ ex:s ex:num ?n }}'
        )
        assert "d" not in row[0]


class TestValueModel:
    def test_equals_numeric_across_types(self):
        assert equals(Literal.of(2), Literal.of(2.0))
        assert not equals(Literal.of(2), Literal.of(3))

    def test_date_vs_datetime_comparison(self):
        date = Literal("2021-06-10", XSD_DATE)
        stamp = Literal("2021-06-10T00:00:00", XSD_DATETIME)
        assert compare("<=", date, stamp)
        assert compare(">=", stamp, date)

    def test_incomparable_raises(self):
        with pytest.raises(ExpressionError):
            compare("<", Literal("abc"), Literal.of(5))

    def test_iri_order_comparison_raises(self):
        with pytest.raises(ExpressionError):
            compare("<", IRI("http://a"), IRI("http://b"))

    def test_effective_boolean_value(self):
        assert effective_boolean_value(Literal.of(True)) is True
        assert effective_boolean_value(Literal.of(0)) is False
        assert effective_boolean_value(Literal("")) is False
        assert effective_boolean_value(Literal("x")) is True
        with pytest.raises(ExpressionError):
            effective_boolean_value(IRI("http://a"))


class TestAggregates:
    def test_sample_and_group_concat_read_term_order(self):
        """Whatever order a join hands the values over in, SAMPLE picks
        the least term and GROUP_CONCAT joins them in term order; an
        unbound value (``None``) is skipped."""
        values = [Literal("mu"), None, Literal("alpha"), Literal("zeta")]
        for order in itertools.permutations(values):
            assert aggregate("SAMPLE", list(order), False, " ") == Literal("alpha")
            assert aggregate("GROUP_CONCAT", list(order), False, ", ") == Literal(
                "alpha, mu, zeta")
        assert aggregate("SAMPLE", [None], False, " ") is None
