"""Unit tests of the RDF term model."""

import copy
import datetime
import pickle
from decimal import Decimal

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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

#: Tier-1 runs the value property derandomized; ``make fuzz`` loads the
#: ``fuzz`` profile (tests/conftest.py) for a long run at a random seed.
_FUZZING = settings.get_current_profile_name() == "fuzz"


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


# ----------------------------------------------------------------------
# Terms are values: a slotted class with its hash computed once behaves
# as the frozen dataclass it replaced, down to the hash formula (so no
# set or dict order moves).  Few texts, so the same text turns up
# across kinds, datatypes and language tags.
# ----------------------------------------------------------------------
FIELDS = {IRI: ("value",), BNode: ("label",),
          Literal: ("lexical", "datatype", "language")}
_texts = st.sampled_from(["", "a", "1", "1.0", "01", "a b", "2021-06-10"])
_terms = st.one_of(
    st.builds(IRI, _texts),
    st.builds(BNode, _texts),
    st.builds(Literal, _texts,
              st.sampled_from([XSD_STRING, XSD_INTEGER, XSD_DOUBLE,
                               XSD_DECIMAL, XSD_DATE, "a"]),
              st.sampled_from(["", "en", "fr"])))


def _fields(term):
    return tuple(getattr(term, name) for name in FIELDS[type(term)])


@given(a=_terms, b=_terms)
@settings(derandomize=not _FUZZING, deadline=None,
          max_examples=10_000 if _FUZZING else 300)
def test_term_values(a, b):
    """``a == b`` exactly when the kinds and every field are equal; equal
    terms hash equal, and every hash is the dataclass formula (the hash
    of the field tuple); pickle, ``copy`` and ``deepcopy`` give an equal
    term of the same kind and sort key; ``<`` is the sort-key order;
    and a field cannot be assigned or deleted."""
    same = type(a) is type(b) and _fields(a) == _fields(b)
    assert (a == b) is same and (a != b) is not same
    assert (b == a) is same
    assert hash(a) == hash(_fields(a)) and hash(b) == hash(_fields(b))
    assert len({a, b}) == (1 if same else 2)
    assert a == a and a != _fields(a) and a != str(a)
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a),
                 copy.deepcopy(a)):
        assert type(twin) is type(a) and twin == a
        assert hash(twin) == hash(a) and twin.sort_key() == a.sort_key()
    ka, kb = a.sort_key(), b.sort_key()
    assert (a < b) == (ka[0] < kb[0] if ka[0] != kb[0] else ka[1:] < kb[1:])
    before = _fields(a)
    for name in FIELDS[type(a)] + ("_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, "x")
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert _fields(a) == before and hash(a) == hash(before)
