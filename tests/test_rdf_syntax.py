"""One RDF term grammar: the readers of N-Triples, Turtle and SPARQL
share their string-escape decoder, their relative-IRI and prefix-name
rules and their blank-node rule, and raise only their own typed errors
on arbitrary text — as does the reader of saved sessions on arbitrary
JSON."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import products_graph
from repro.facets import FacetedAnalyticsSession
from repro.facets.persistence import replay_session, session_to_dict
from repro.rdf import ntriples, turtle
from repro.rdf.bulkload import BulkLoadError, load_file
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import BNode, IRI, Literal
from repro.sparql import SparqlParseError, parse_query, query
from repro.sparql import ast
from repro.sparql.parser import MAX_NESTING

from tests.test_persistence_cli import PARENT_V1

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


class TestBlankNodes:
    """One rule, two readings: Turtle keeps a blank node a node, a
    SPARQL pattern reads it as a variable (SPARQL 1.1 §4.1.4); either
    way an anonymous ``[ … ]`` node is never one the text labels."""

    def test_an_anonymous_node_never_merges_with_a_labelled_one(self):
        graph = turtle.parse(
            "@prefix e: <http://x/> . e:s e:p [ e:q e:o ] . _:q1 e:r e:z .")
        e = "http://x/"
        anonymous = graph.value(IRI(e + "s"), IRI(e + "p"))
        assert isinstance(anonymous, BNode) and anonymous != BNode("q1")
        assert set(graph) == {
            (IRI(e + "s"), IRI(e + "p"), anonymous),
            (anonymous, IRI(e + "q"), IRI(e + "o")),
            (BNode("q1"), IRI(e + "r"), IRI(e + "z")),
        }

    @pytest.fixture()
    def chain(self):
        graph = Graph()
        graph.add(EX.s, EX.p, EX.a)
        graph.add(EX.a, EX.q, EX.o)
        return graph

    @pytest.mark.parametrize("where", [
        "ex:s ex:p [ ex:q ?o ]",
        "ex:s ex:p _:b . _:b ex:q ?o",
        "ex:s ex:p ?b . ?b ex:q ?o",
    ])
    def test_a_pattern_blank_node_matches_like_a_variable(self, chain, where):
        answer = query(chain, f"PREFIX ex: <{EX.term('').value}> "
                              f"SELECT ?o WHERE {{ {where} }}")
        assert [row.value("o") for row in answer] == [EX.o]

    @pytest.mark.parametrize("where", [
        "ex:s ex:p [ ex:q ?o ]", "ex:s ex:p _:b . _:b ex:q ?o"])
    def test_select_star_leaves_the_blank_node_out(self, chain, where):
        answer = query(chain, f"PREFIX ex: <{EX.term('').value}> "
                              f"SELECT * WHERE {{ {where} }}")
        assert answer.variables == ("o",)
        assert [dict(row.items()) for row in answer] == [{"o": EX.o}]

    def test_a_template_blank_node_is_minted_per_solution(self, chain):
        chain.add(EX.s, EX.p, EX.b)
        chain.add(EX.b, EX.q, EX.o2)
        built = query(chain, f"PREFIX ex: <{EX.term('').value}> "
                             "CONSTRUCT { _:n ex:r ?o . ?o ex:t [ ex:u _:n ] } "
                             "WHERE { ex:s ex:p [ ex:q ?o ] }")
        minted = {s for s, p, _ in built if p == EX.r}
        assert len(minted) == 2 and all(isinstance(n, BNode) for n in minted)
        assert len(built) == 6
        for node in minted:  # one node per solution, both of its triples
            assert sum(node in (s, o) for s, _, o in built) == 2


def _sparql_nested(kind: str, levels: int) -> str:
    """A query nesting ``levels`` levels deep, its WHERE group the
    first (a FILTER's own brackets are none)."""
    inner = levels - 1
    if kind == "(":
        return ("SELECT ?x WHERE { FILTER(" + "(" * inner + "?x"
                + ")" * inner + ") }")
    if kind == "{":
        return "SELECT ?x WHERE {" + "{" * inner + "}" * inner + "}"
    return ("SELECT ?x WHERE { ?x <p> " + "[ <p> " * inner + "<o>"
            + " ]" * inner + " }")


def _turtle_nested(levels: int) -> str:
    return "<s> <p> " + "[ <p> " * levels + "<o>" + " ]" * levels + " ."


class TestDeepNesting:
    """Past :data:`MAX_NESTING` levels a reader raises its typed error
    at the opening token that goes one level too deep (in these texts,
    the last one) — never a RecursionError."""

    @pytest.mark.parametrize("kind", ["(", "{", "["])
    def test_sparql_at_and_past_the_bound(self, kind):
        parse_query(_sparql_nested(kind, MAX_NESTING))
        text = _sparql_nested(kind, MAX_NESTING + 1)
        with pytest.raises(SparqlParseError) as err:
            parse_query(text)
        assert (err.value.line, err.value.column) == (1, text.rindex(kind) + 1)

    def test_turtle_at_and_past_the_bound(self):
        assert len(turtle.parse(_turtle_nested(MAX_NESTING))) == MAX_NESTING + 1
        text = _turtle_nested(MAX_NESTING + 1)
        with pytest.raises(turtle.TurtleError) as err:
            turtle.parse(text)
        assert (err.value.line, err.value.column) == (1, text.rindex("[") + 1)
        with pytest.raises(turtle.TurtleError):
            turtle.parse(_turtle_nested(1000))

    @pytest.mark.parametrize("text", [
        "SELECT ?x WHERE { FILTER(" + "(" * 1000 + "?x" + ")" * 1000 + ") }",
        "SELECT ?x WHERE { FILTER(" + "!" * 1000 + "?x) }",
        "SELECT ?x WHERE { FILTER(" + "STR(" * 1000 + "?x" + ")" * 1000 + ") }",
        "SELECT ?x WHERE { ?x " + "(" * 1000 + "<p>" + ")" * 1000 + " ?y }",
        "SELECT ?x WHERE " + "{" * 1000 + "}" * 1000,
    ])
    def test_far_past_the_bound_is_still_typed(self, text):
        with pytest.raises(SparqlParseError):
            parse_query(text)


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


# -- saved sessions: arbitrary JSON raises only ValueError --------------
#: What a mutation puts into a saved session: JSON values, biased
#: towards the keys and words the format uses.
_WORDS = st.sampled_from([
    "version", "root_class", "seeds", "conditions", "pivot", "inner",
    "path", "prop", "inverse", "action", "class", "value", "values",
    "range", "cls", "comparator", "kind", "iri", "bnode", "literal",
    "datatype", "language", "groups", "derived", "measure", "operations",
    "with_count", "YEAR", "AVG", "COUNT", ">=", "<", "=",
    EX.Laptop.value, EX.price.value, EX.manufacturer.value,
    Literal.of(1).datatype,
])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
    | st.text(max_size=4) | _WORDS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(_WORDS | st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=6)


def _saved_sessions():
    """Saved sessions of every shape: clicks of the four kinds, groups
    and a measure; a pivot; seeds and a count of items."""
    graph = products_graph()
    pivoted = FacetedAnalyticsSession(graph)
    pivoted.select_class(EX.Laptop)
    pivoted.pivot_to((EX.manufacturer,))
    pivoted.count_items()
    seeded = FacetedAnalyticsSession(graph, results=[EX.laptop1, EX.laptop2])
    seeded.group_by((EX.manufacturer, EX.origin))
    seeded.count_items()
    seeded.with_count()
    return [json.loads(PARENT_V1), session_to_dict(pivoted),
            session_to_dict(seeded)]


_SAVED = _saved_sessions()
_CLOSED = FacetedAnalyticsSession(products_graph()).graph


@st.composite
def _mutated_sessions(draw):
    """A saved session with one to three of its values replaced by
    arbitrary JSON or their keys deleted, anywhere in the tree."""
    data = json.loads(json.dumps(draw(st.sampled_from(_SAVED))))
    for _ in range(draw(st.integers(1, 3))):
        node = data
        while isinstance(node, (dict, list)) and node:
            key = draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and draw(st.booleans()):
                node = node[key]
            elif isinstance(node, dict) and draw(st.booleans()):
                del node[key]
                break
            else:
                node[key] = draw(_JSON)
                break
    return data


@settings(derandomize=not _FUZZING, deadline=None)
@given(st.one_of(_mutated_sessions(), _mutated_sessions().map(json.dumps),
                 _JSON, st.text(max_size=20)))
def test_replay_session_raises_only_typed_errors(data):
    """Malformed saved data is a ValueError — an impossible click an
    EmptyTransitionError, one of its kind — whatever the input."""
    try:
        replay_session(_CLOSED, data, lambda graph, results=None:
                       FacetedAnalyticsSession(graph, results, closed=True))
    except ValueError:
        pass
