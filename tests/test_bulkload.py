"""Streaming bulk load: line numbers, strict/skip semantics, round-trips.

``repro.rdf.bulkload`` streams N-Triples line by line (and Turtle
document-at-a-time) into flat or sharded stores.  Pinned here: reported
line numbers match the file exactly (blank and comment lines count),
``strict`` decides raise-vs-skip, the loaders round-trip against the
in-memory parsers, and a sharded target receives the same graph a flat
one does.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.rdf import ntriples, turtle
from repro.rdf.bulkload import (
    BulkLoadError,
    LoadReport,
    load_file,
    load_ntriples,
    load_turtle,
)
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.ntriples import NTriplesError, parse_lines
from repro.rdf.sharding import ShardedGraph
from repro.rdf.terms import BNode, IRI, Literal

GOOD_NT = """\
# a comment on line 1
<http://example.org/a> <http://example.org/p> <http://example.org/b> .

<http://example.org/a> <http://example.org/q> "hello" .
<http://example.org/b> <http://example.org/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
"""

BAD_LINE_5 = GOOD_NT + "this is not a triple\n"


class TestParseLines:
    def test_line_numbers_count_every_line(self):
        pairs = list(parse_lines(GOOD_NT.splitlines()))
        # Line 1 is a comment, line 3 blank: statements at 2, 4, 5.
        assert [line for line, _ in pairs] == [2, 4, 5]

    def test_strict_reports_the_failing_line(self):
        with pytest.raises(NTriplesError, match=r"^line 6: "):
            list(parse_lines(BAD_LINE_5.splitlines()))

    def test_non_strict_skips_and_reports(self):
        skipped = []
        pairs = list(parse_lines(
            BAD_LINE_5.splitlines(), strict=False,
            on_skip=lambda line, message: skipped.append((line, message))))
        assert len(pairs) == 3
        assert [line for line, _ in skipped] == [6]
        assert "not an N-Triples statement" in skipped[0][1]

    def test_parse_delegates_to_the_streaming_core(self):
        assert list(ntriples.parse(GOOD_NT)) == [
            triple for _, triple in parse_lines(GOOD_NT.splitlines())]


class TestLoadNTriples:
    def test_round_trips_against_the_parser(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text(GOOD_NT, encoding="utf-8")
        graph, report = load_ntriples(path)
        assert set(graph) == set(ntriples.parse(GOOD_NT))
        assert report.statements == 3
        assert report.triples_added == 3
        assert report.clean

    def test_accepts_open_handles_and_line_iterables(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text(GOOD_NT, encoding="utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            from_handle, _ = load_ntriples(handle)
            assert not handle.closed  # caller's handle stays the caller's
        from_lines, _ = load_ntriples(GOOD_NT.splitlines())
        assert set(from_handle) == set(from_lines) == set(ntriples.parse(GOOD_NT))

    def test_duplicate_statements_add_once(self):
        doc = GOOD_NT + GOOD_NT
        graph, report = load_ntriples(doc.splitlines())
        assert report.statements == 6
        assert report.triples_added == 3
        assert len(graph) == 3

    def test_turtle_counts_statements_like_ntriples(self, tmp_path):
        path = tmp_path / "twice.ttl"
        path.write_text("@prefix ex: <http://example.org/> .\n"
                        "ex:a ex:p ex:b .\nex:a ex:p ex:b .\n",
                        encoding="utf-8")
        graph, report = load_turtle(path)
        assert (report.statements, report.triples_added, len(graph)) == (2, 1, 1)

    def test_spellings_of_one_term_get_one_id(self):
        graph, report = load_ntriples([
            '<http://e/s> <http://e/p> "a" .',
            '<http://e/s> <http://e/p> "a"^^<http://www.w3.org/2001/XMLSchema#string> .',
            '<http://e/s> <http://e/p> "\\u0061" .',
            '<http://e/s> <http://e/p> "a"@en .',
            '<http://e/s> <http://e/p> <a> .',
            '<http://e/s> <http://e/p> _:a .',
        ])
        assert (report.statements, report.triples_added) == (6, 4)
        assert set(graph.objects(IRI("http://e/s"), IRI("http://e/p"))) == {
            Literal("a"), Literal("a", language="en"), IRI("a"), BNode("a")}
        assert len(graph.dictionary) == 6

    def test_a_skipped_line_interns_nothing(self):
        graph, report = load_ntriples([
            '"lit" <http://e/p> <http://e/only-in-a-bad-line> .',
            '<http://e/only-in-a-bad-line> _:p <http://e/o> .',
        ], strict=False)
        assert report.skipped == [
            (1, "subject cannot be a literal: " + repr(
                '"lit" <http://e/p> <http://e/only-in-a-bad-line> .')),
            (2, "predicate must be an IRI: " + repr(
                '<http://e/only-in-a-bad-line> _:p <http://e/o> .'))]
        assert len(graph.dictionary) == 0

    def test_strict_failure_carries_the_line_number(self, tmp_path):
        path = tmp_path / "bad.nt"
        path.write_text(BAD_LINE_5, encoding="utf-8")
        with pytest.raises(BulkLoadError) as excinfo:
            load_ntriples(path)
        assert excinfo.value.line == 6
        assert "line 6" in str(excinfo.value)
        # The number is the parser's datum, not text recovered from the
        # message — a malformed line may itself begin with "line 7:".
        doc = GOOD_NT.splitlines()[:2] + ["line 7: not a statement"]
        with pytest.raises(BulkLoadError) as excinfo:
            load_ntriples(doc)
        assert excinfo.value.line == 3
        assert excinfo.value.__cause__.line == 3

    def test_non_strict_collects_skips(self):
        graph, report = load_ntriples(BAD_LINE_5.splitlines(), strict=False)
        assert len(graph) == 3
        assert not report.clean
        assert [line for line, _ in report.skipped] == [6]

    def test_sharded_target_equals_flat_load(self):
        flat, _ = load_ntriples(GOOD_NT.splitlines())
        sharded, report = load_ntriples(GOOD_NT.splitlines(), shards=4)
        assert isinstance(sharded, ShardedGraph)
        assert sharded.num_shards == 4
        assert set(sharded) == set(flat)
        assert report.triples_added == len(flat)
        assert sum(map(len, sharded.shards)) == len(flat)

    def test_explicit_target_graph_is_used(self):
        target = Graph()
        target.add(EX.seed, RDF.type, EX.Thing)
        graph, report = load_ntriples(GOOD_NT.splitlines(), graph=target)
        assert graph is target
        assert len(graph) == 4
        assert report.triples_added == 3


class TestLoadTurtleAndDispatch:
    TTL = """\
@prefix ex: <http://example.org/> .
ex:a ex:p ex:b ; ex:q "hello" .
ex:b ex:p 3 .
"""

    def test_turtle_round_trips_against_the_parser(self, tmp_path):
        path = tmp_path / "data.ttl"
        path.write_text(self.TTL, encoding="utf-8")
        graph, report = load_turtle(path)
        assert set(graph) == set(turtle.parse(self.TTL))
        assert report.triples_added == 3
        assert report.clean

    def test_turtle_into_sharded_target(self, tmp_path):
        path = tmp_path / "data.ttl"
        path.write_text(self.TTL, encoding="utf-8")
        graph, _ = load_turtle(path, shards=3)
        assert isinstance(graph, ShardedGraph)
        assert set(graph) == set(turtle.parse(self.TTL))

    def test_load_file_dispatches_on_suffix(self, tmp_path):
        nt = tmp_path / "data.nt"
        nt.write_text(GOOD_NT, encoding="utf-8")
        ttl = tmp_path / "data.ttl"
        ttl.write_text(self.TTL, encoding="utf-8")
        from_nt, _ = load_file(nt)
        from_ttl, _ = load_file(ttl)
        assert set(from_nt) == set(ntriples.parse(GOOD_NT))
        assert set(from_ttl) == set(turtle.parse(self.TTL))
        with pytest.raises(BulkLoadError, match="cannot infer"):
            load_file(tmp_path / "data.json")

    def test_serializer_round_trip_through_the_streaming_loader(self):
        graph = Graph()
        graph.add(EX.a, EX.p, EX.b)
        graph.add(EX.a, EX.q, Literal.of("x"))
        graph.add(EX.b, EX.n, Literal.of(7))
        text = ntriples.serialize(graph.triples())
        loaded, report = load_ntriples(text.splitlines())
        assert set(loaded) == set(graph)
        assert report.statements == 3

    def test_report_repr_is_informative(self):
        report = LoadReport(statements=5, triples_added=4,
                            skipped=[(3, "bad")])
        assert "5 statements" in repr(report)
        assert "1 skipped" in repr(report)


# ----------------------------------------------------------------------
# The loader interns each distinct token once and writes ids; the
# Term-level path it replaced — parse_lines + Graph.add — is the oracle.
# ----------------------------------------------------------------------
_XSD = "http://www.w3.org/2001/XMLSchema#"
_SUBJECTS = ["<http://e/a>", "<http://e/b>", "_:a", "_:n1"]
_PREDICATES = ["<http://e/p>", "<http://e/q>", "<http://e/a>"]
_OBJECTS = _SUBJECTS + [
    '"a"', f'"a"^^<{_XSD}string>', '"\\u0061"', '"\\U00000061"', '"a"@en',
    '"a"@en-GB', '""', '"3"', f'"3"^^<{_XSD}integer>', '"tab\\there"',
    '"line\\nbreak"', '"say \\"hi\\""', '"back\\\\slash"', '"caf\\u00E9"',
    '"café"', '"<http://e/a>"', '"_:a"',
]
_statement_lines = st.builds(
    "{} {} {} .{}".format,
    st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES),
    st.sampled_from(_OBJECTS), st.sampled_from(["", " ", " # trailing"]))
_other_lines = st.sampled_from([
    "", "   ", "# a comment", "this is not a triple", "line 7: nor is this",
    '"lit" <http://e/p> <http://e/only-bad> .',      # literal subject
    "<http://e/a> _:onlybad <http://e/b> .",         # blank-node predicate
    '<http://e/a> "only-bad" <http://e/b> .',        # literal predicate
    "<http://e/a> <http://e/p> <http://e/only-bad>", # no final dot
    '<http://e/a> <http://e/p> "only-bad .',         # unterminated
])
_documents = st.lists(
    st.one_of(_statement_lines, _statement_lines, _other_lines), max_size=14)


def _term_level_load(lines, target, strict):
    """What ``load_ntriples`` did before: every line's three terms
    built by ``parse_lines``, then ``Graph.add``."""
    report = LoadReport()
    stream = parse_lines(
        lines, strict=strict,
        on_skip=lambda line_no, message:
            report.skipped.append((line_no, message)))
    for _, (s, p, o) in stream:
        report.statements += 1
        report.triples_added += target.add(s, p, o)
    return report


@pytest.mark.parametrize("shards", [1, 4])
@given(lines=_documents, strict=st.booleans())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_loading_by_ids_equals_parsing_terms_and_adding_them(
        shards, lines, strict):
    expected = Graph() if shards == 1 else ShardedGraph(shards=shards)
    loaded = expected._new_like()
    try:
        expected_report = _term_level_load(lines, expected, strict)
    except NTriplesError as expected_error:
        with pytest.raises(BulkLoadError) as raised:
            load_ntriples(lines, graph=loaded, strict=strict)
        assert str(raised.value) == str(expected_error)
        assert raised.value.line == expected_error.line
        assert raised.value.__cause__.line == expected_error.line
        assert str(raised.value.__cause__) == str(expected_error)
    else:
        graph, report = load_ntriples(lines, strict=strict, shards=shards)
        assert type(graph) is type(expected) and graph == expected
        assert report == expected_report
        assert load_ntriples(lines, graph=loaded, strict=strict)[1] == report
    # Strict or not, failed or not: the same triples arrived, every
    # term got the id the Term-level path gives it, and nothing else —
    # no token of a skipped or failing line — was interned.
    assert set(loaded) == set(expected)
    assert loaded.predicate_counts() == expected.predicate_counts()
    assert len(loaded.dictionary) == len(expected.dictionary)
    assert all(loaded.decode_id(i) == expected.decode_id(i)
               for i in range(len(expected.dictionary)))
