"""Tests of Turtle and N-Triples parsing/serialization."""

import pytest

from repro.rdf import Graph
from repro.rdf.namespace import EX, RDF, XSD
from repro.rdf.terms import BNode, IRI, Literal, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from repro.rdf import ntriples, turtle


class TestNTriples:
    def test_parse_basic_line(self):
        t = ntriples.parse_line(
            "<http://a/s> <http://a/p> <http://a/o> ."
        )
        assert t == (IRI("http://a/s"), IRI("http://a/p"), IRI("http://a/o"))

    def test_parse_literal_with_datatype(self):
        t = ntriples.parse_line(
            f'<http://a/s> <http://a/p> "5"^^<{XSD_INTEGER}> .'
        )
        assert t[2] == Literal("5", XSD_INTEGER)

    def test_parse_literal_with_langtag(self):
        t = ntriples.parse_line('<http://a/s> <http://a/p> "bonjour"@fr .')
        assert t[2].language == "fr"

    def test_parse_bnode(self):
        t = ntriples.parse_line("_:b0 <http://a/p> _:b1 .")
        assert t[0] == BNode("b0") and t[2] == BNode("b1")

    def test_escapes_roundtrip(self):
        g = Graph([(EX.s, EX.p, Literal('a "quoted"\nline\t!'))])
        assert Graph(ntriples.parse(ntriples.serialize(g))) == g

    def test_unicode_escape(self):
        t = ntriples.parse_line('<http://a/s> <http://a/p> "\\u00e9" .')
        assert t[2].lexical == "é"

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\n<http://a/s> <http://a/p> <http://a/o> .\n"
        assert len(list(ntriples.parse(text))) == 1

    def test_bad_line_raises(self):
        with pytest.raises(ntriples.NTriplesError):
            ntriples.parse_line("not a triple")

    def test_literal_subject_rejected(self):
        with pytest.raises(ntriples.NTriplesError):
            ntriples.parse_line('"lit" <http://a/p> <http://a/o> .')

    def test_serialize_is_sorted_and_stable(self):
        g = Graph([(EX.b, EX.p, EX.c), (EX.a, EX.p, EX.b)])
        text = ntriples.serialize(g)
        assert text == ntriples.serialize(ntriples.parse(text))
        lines = text.strip().splitlines()
        assert lines == sorted(lines)


class TestTurtleParsing:
    def test_prefixes_and_a(self):
        g = turtle.parse(
            "@prefix e: <http://x/> . e:s a e:C ."
        )
        assert (IRI("http://x/s"), RDF.type, IRI("http://x/C")) in g

    def test_sparql_style_prefix(self):
        g = turtle.parse("PREFIX e: <http://x/>\ne:s e:p e:o .")
        assert len(g) == 1

    def test_predicate_and_object_lists(self):
        g = turtle.parse(
            "@prefix e: <http://x/> . e:s e:p e:o1, e:o2 ; e:q e:o3 ."
        )
        assert len(g) == 3

    def test_trailing_semicolon(self):
        g = turtle.parse("@prefix e: <http://x/> . e:s e:p e:o ; .")
        assert len(g) == 1

    def test_numeric_shorthand(self):
        g = turtle.parse("@prefix e: <http://x/> . e:s e:a 5 ; e:b 2.5 ; e:c 1e3 .")
        objects = {o.datatype for o in g.all_objects()}
        assert objects == {XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE}

    def test_boolean_shorthand(self):
        g = turtle.parse("@prefix e: <http://x/> . e:s e:p true .")
        lit = next(iter(g.all_objects()))
        assert lit.to_python() is True

    def test_typed_literal_with_pname_datatype(self):
        g = turtle.parse(
            '@prefix e: <http://x/> . e:s e:p "2021-01-01"^^xsd:date .'
        )
        lit = next(iter(g.all_objects()))
        assert lit.datatype == XSD.base + "date"

    def test_language_tag(self):
        g = turtle.parse('@prefix e: <http://x/> . e:s e:p "hi"@en .')
        assert next(iter(g.all_objects())).language == "en"

    def test_long_string(self):
        g = turtle.parse('@prefix e: <http://x/> . e:s e:p """line1\nline2""" .')
        assert "line1\nline2" == next(iter(g.all_objects())).lexical

    def test_anonymous_bnode(self):
        g = turtle.parse(
            "@prefix e: <http://x/> . e:s e:p [ e:q e:o ] ."
        )
        assert len(g) == 2
        inner = [t for t in g if isinstance(t[0], BNode)]
        assert len(inner) == 1

    def test_labelled_bnode(self):
        g = turtle.parse("@prefix e: <http://x/> . _:x e:p e:o .")
        assert (BNode("x"), IRI("http://x/p"), IRI("http://x/o")) in g

    def test_undefined_prefix_raises_with_position(self):
        with pytest.raises(turtle.TurtleError) as err:
            turtle.parse("zz:s zz:p zz:o .")
        assert "zz" in str(err.value)

    def test_collections_rejected_clearly(self):
        with pytest.raises(turtle.TurtleError) as err:
            turtle.parse("@prefix e: <http://x/> . e:s e:p (e:a e:b) .")
        assert "collection" in str(err.value).lower()

    def test_comment_handling(self):
        g = turtle.parse(
            "@prefix e: <http://x/> . # comment\ne:s e:p e:o . # trailing"
        )
        assert len(g) == 1

    def test_literal_subject_rejected(self):
        with pytest.raises(turtle.TurtleError):
            turtle.parse('@prefix e: <http://x/> . "x" e:p e:o .')


class TestTurtleSerialization:
    def test_roundtrip_products(self):
        from repro.datasets import products_graph

        g = products_graph()
        assert turtle.parse(turtle.serialize(g)) == g

    def test_groups_by_subject(self):
        g = Graph([(EX.s, EX.p, EX.a), (EX.s, EX.q, EX.b)])
        text = turtle.serialize(g)
        # One subject block: the subject IRI appears once.
        assert text.count("ex:s ") == 1

    def test_uses_a_for_rdf_type(self):
        g = Graph([(EX.s, RDF.type, EX.C)])
        assert " a ex:C" in turtle.serialize(g)
