"""Unit tests of the RDF term model."""

import datetime
from decimal import Decimal

import pytest

from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    triple,
)


class TestIRI:
    def test_equality_and_hash(self):
        assert IRI("http://a/x") == IRI("http://a/x")
        assert IRI("http://a/x") != IRI("http://a/y")
        assert len({IRI("http://a/x"), IRI("http://a/x")}) == 1

    def test_n3(self):
        assert IRI("http://a/x").n3() == "<http://a/x>"

    def test_local_name_hash_and_slash(self):
        assert IRI("http://ex.org/ns#Laptop").local_name() == "Laptop"
        assert IRI("http://ex.org/ns/Laptop").local_name() == "Laptop"
        assert IRI("urn-without-separators").local_name() == "urn-without-separators"


class TestBNode:
    def test_identity(self):
        assert BNode("b1") == BNode("b1")
        assert BNode("b1") != BNode("b2")
        assert BNode("b1").n3() == "_:b1"


class TestLiteralConstruction:
    def test_of_int(self):
        lit = Literal.of(42)
        assert lit.datatype == XSD_INTEGER
        assert lit.to_python() == 42

    def test_of_bool_not_confused_with_int(self):
        lit = Literal.of(True)
        assert lit.datatype == XSD_BOOLEAN
        assert lit.to_python() is True

    def test_of_float(self):
        lit = Literal.of(1.5)
        assert lit.datatype == XSD_DOUBLE
        assert lit.to_python() == 1.5

    def test_of_decimal(self):
        lit = Literal.of(Decimal("3.14"))
        assert lit.datatype == XSD_DECIMAL
        assert lit.to_python() == Decimal("3.14")

    def test_of_date_and_datetime(self):
        d = datetime.date(2021, 6, 10)
        dt = datetime.datetime(2021, 6, 10, 12, 30)
        assert Literal.of(d).datatype == XSD_DATE
        assert Literal.of(d).to_python() == d
        assert Literal.of(dt).datatype == XSD_DATETIME
        assert Literal.of(dt).to_python() == dt

    def test_of_string(self):
        lit = Literal.of("hello")
        assert lit.datatype == XSD_STRING
        assert lit.to_python() == "hello"

    def test_of_rejects_unknown(self):
        with pytest.raises(TypeError):
            Literal.of(object())


class TestLiteralBehaviour:
    def test_malformed_numeric_falls_back_to_lexical(self):
        lit = Literal("not-a-number", XSD_INTEGER)
        assert lit.to_python() == "not-a-number"

    def test_language_tag_serialization(self):
        lit = Literal("bonjour", XSD_STRING, "fr")
        assert lit.n3() == '"bonjour"@fr'

    def test_plain_string_serialization(self):
        assert Literal("hi").n3() == '"hi"'

    def test_typed_serialization(self):
        assert Literal("5", XSD_INTEGER).n3() == f'"5"^^<{XSD_INTEGER}>'

    def test_escaping(self):
        lit = Literal('say "hi"\n')
        assert lit.n3() == '"say \\"hi\\"\\n"'

    def test_is_numeric(self):
        assert Literal("5", XSD_INTEGER).is_numeric()
        assert not Literal("2021-01-01", XSD_DATE).is_numeric()

    @pytest.mark.parametrize("lexical", ["NaN", "sNaN", "-NaN", "Infinity",
                                         "-Infinity", "inf"])
    def test_decimal_has_no_nan_or_infinity(self, lexical):
        """xsd:decimal's lexical space holds finite numbers only: these
        are ill-typed, kept as their lexical form, and sort as strings."""
        lit = Literal(lexical, XSD_DECIMAL)
        assert lit.to_python() == lexical
        assert lit.sort_key() == Literal(lexical).sort_key()
        assert sorted([lit, Literal("1.5", XSD_DECIMAL)])[0] == Literal(
            "1.5", XSD_DECIMAL)

    def test_datetime_with_zulu(self):
        lit = Literal("2021-01-01T00:00:00Z", XSD_DATETIME)
        value = lit.to_python()
        assert value.year == 2021 and value.tzinfo is not None


class TestOrdering:
    def test_kind_order(self):
        assert IRI("http://z") < BNode("a") < Literal("a")

    def test_numeric_literals_order_by_value(self):
        assert Literal.of(9) < Literal.of(10)
        assert Literal.of(9.5) < Literal.of(10)

    def test_string_literals_order_lexically(self):
        assert Literal("apple") < Literal("banana")

    def test_sorted_mixed(self):
        terms = [Literal.of(3), IRI("http://a"), BNode("x"), Literal.of(1)]
        ordered = sorted(terms)
        assert ordered[0] == IRI("http://a")
        assert ordered[1] == BNode("x")
        assert ordered[2] == Literal.of(1)


class TestTripleValidation:
    def test_valid(self):
        t = triple(IRI("http://s"), IRI("http://p"), Literal("o"))
        assert t == (IRI("http://s"), IRI("http://p"), Literal("o"))

    def test_literal_subject_rejected(self):
        with pytest.raises(TypeError):
            triple(Literal("s"), IRI("http://p"), Literal("o"))

    def test_non_iri_predicate_rejected(self):
        with pytest.raises(TypeError):
            triple(IRI("http://s"), BNode("p"), Literal("o"))

    def test_bad_object_rejected(self):
        with pytest.raises(TypeError):
            triple(IRI("http://s"), IRI("http://p"), "plain string")
