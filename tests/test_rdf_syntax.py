"""One RDF term grammar: the readers of N-Triples, Turtle and SPARQL
share their string-escape decoder, their relative-IRI and prefix-name
rules, and raise only their own typed errors on arbitrary text."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rdf import ntriples, turtle
from repro.rdf.bulkload import BulkLoadError, load_file
from repro.rdf.namespace import RDF
from repro.rdf.terms import IRI, Literal
from repro.sparql import SparqlParseError, parse_query
from repro.sparql import ast

#: The escapes RDF 1.1 allows in a string (ECHAR, then UCHAR), with the
#: characters they spell.
ESCAPES = [
    (r"\t", "\t"), (r"\b", "\b"), (r"\n", "\n"), (r"\r", "\r"),
    (r"\f", "\f"), (r"\"", '"'), (r"\'", "'"), (r"\\", "\\"),
    (r"\u00e9", "é"), (r"\U0001F600", "\U0001F600"),
]


class TestOneEscapeDecoder:
    def test_ntriples_decodes_every_echar(self):
        triple = ntriples.parse_line(
            r'<http://x/s> <http://x/p> "it\'s\bx\fy" .')
        assert triple[2].lexical == "it's\bx\fy"

    @pytest.mark.parametrize("escape, char", ESCAPES)
    def test_the_three_readers_agree(self, escape, char):
        from_nt = ntriples.parse_line(f'<http://x/s> <http://x/p> "a{escape}b" .')
        from_ttl = next(iter(turtle.parse(f'<http://x/s> <http://x/p> "a{escape}b" .')))
        query = parse_query(f'SELECT ?s WHERE {{ ?s <http://x/p> "a{escape}b" }}')
        from_sparql = query.where.children[0].o
        assert from_nt[2] == from_ttl[2] == from_sparql == Literal(f"a{char}b")

    def test_escape_past_the_last_code_point_is_kept_as_written(self):
        triple = ntriples.parse_line(r'<http://x/s> <http://x/p> "\U00110000" .')
        assert triple[2].lexical == r"\U00110000"


class TestOneIriRule:
    def test_sparql_base_resolves_prefix_and_datatype_iris(self):
        query = parse_query(
            'BASE <http://b/> PREFIX e: <rel/> '
            'SELECT ?s WHERE { ?s e:p "1"^^<dt> }')
        pattern = query.where.children[0]
        assert pattern.p == IRI("http://b/rel/p")
        assert pattern.o == Literal("1", "http://b/dt")

    def test_turtle_base_resolves_prefix_and_datatype_iris(self):
        graph = turtle.parse(
            '@base <http://b/> . @prefix e: <rel/> . e:s e:p "1"^^<dt> .')
        assert set(graph) == {
            (IRI("http://b/rel/s"), IRI("http://b/rel/p"),
             Literal("1", "http://b/dt")),
        }

    def test_turtle_at_prefix_and_sparql_prefix_read_alike(self):
        at_form = turtle.parse("@base <http://b/> . @prefix e: <r/> . e:s a e:C .")
        keyword_form = turtle.parse("BASE <http://b/> PREFIX e: <r/> e:s a e:C .")
        assert set(at_form) == set(keyword_form) == {
            (IRI("http://b/r/s"), RDF.type, IRI("http://b/r/C")),
        }

    def test_sparql_prefix_name_with_an_inner_dot(self):
        query = parse_query(
            "PREFIX a.b: <http://x/> SELECT ?s WHERE { ?s a.b:p a.b:o }")
        assert query.where.children[0] == ast.TriplePattern(
            ast.Var("s"), IRI("http://x/p"), IRI("http://x/o"))

    def test_turtle_prefix_name_with_an_inner_dot(self):
        graph = turtle.parse("@prefix a.b: <http://x/> . a.b:s a.b:p a.b:o .")
        assert set(graph) == {
            (IRI("http://x/s"), IRI("http://x/p"), IRI("http://x/o")),
        }


class TestKeywordA:
    def test_a_is_rdf_type_only_as_a_predicate(self):
        with pytest.raises(turtle.TurtleError):
            turtle.parse("@prefix e: <http://x/> . e:s e:p a .")
        with pytest.raises(SparqlParseError):
            parse_query("SELECT * WHERE { a ?p ?o }")


class TestTurtleRefusals:
    @pytest.mark.parametrize("statement, column", [
        ("e:s ?p e:o .", 5),        # a variable as predicate
        ("e:s e:p ?o .", 9),        # a variable as object
        ("e:s e:p/e:q e:o .", 5),   # a property path
        ("e:s ^e:p e:o .", 5),      # an inverse path
        ("e:s e:p (e:a) .", 9),     # a collection
    ])
    def test_sparql_only_syntax_is_a_positioned_turtle_error(self, statement, column):
        with pytest.raises(turtle.TurtleError) as err:
            turtle.parse("@prefix e: <http://x/> .\n" + statement)
        assert (err.value.line, err.value.column) == (2, column)


class TestBulkLoadErrors:
    def test_bad_turtle_file_raises_bulk_load_error_with_its_line(self, tmp_path):
        path = tmp_path / "bad.ttl"
        path.write_text("@prefix e: <http://x/> .\ne:s e:p .\n", encoding="utf-8")
        with pytest.raises(BulkLoadError) as err:
            load_file(path)
        assert err.value.line == 2


#: Snippets of the Turtle / SPARQL token alphabet, well- and ill-formed,
#: that the readers' text is drawn from.
ALPHABET = [
    " ", "\n", "# c\n", ".", ";", ",", "[", "]", "(", ")", "{", "}",
    "@prefix", "@base", "PREFIX", "BASE", "@en", "^^", "a", "true",
    "e:", "e:s", "a.b:c", "zz:q", "<http://x/>", "<rel>", "<", ">",
    "_:b", "?x", "$y", '"s"', "'t'", '"""l\n"""', '"\\u00e9"', '"\\q"',
    '"', "'", "\\", "@", "1", "-2.5", "1e3", "+", "-", "*", "/", "|",
    "^", "!", "=", "&&", "%", ":", "SELECT", "ASK", "CONSTRUCT", "WHERE",
    "FILTER", "OPTIONAL", "UNION", "MINUS", "BIND", "AS", "VALUES", "UNDEF",
    "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "COUNT", "SUM", "STR",
    "EXISTS", "NOT", "IN", "DISTINCT",
]

#: Tier-1 runs the property derandomized at the default size, so it never
#: varies from run to run; ``make fuzz`` loads the ``fuzz`` profile
#: (tests/conftest.py) for a long run at a random seed.
_FUZZING = settings.get_current_profile_name() == "fuzz"


def _raises_only(error, read, text):
    try:
        read(text)
    except error as exc:
        assert exc.line >= 1


@settings(derandomize=not _FUZZING, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join))
@example("[")
@example("@prefix e: <http://x/> . e:s e:p")
@example("CONSTRUCT {} WHERE {} LIMIT a")
def test_parsers_raise_only_their_typed_errors(text):
    _raises_only(turtle.TurtleError, turtle.parse, text)
    _raises_only(ntriples.NTriplesError, lambda t: list(ntriples.parse(t)), text)
    _raises_only(SparqlParseError, parse_query, text)
