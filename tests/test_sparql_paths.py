"""Tests of SPARQL 1.1 property paths: / ^ * + ? | and combinations."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.overlay import ExtensionView
from repro.rdf.sharding import ShardedGraph
from repro.rdf.terms import Literal
from repro.rdf.turtle import parse
from repro.sparql import query
from repro.sparql.errors import SparqlParseError


@pytest.fixture()
def g():
    return parse(
        """
        @prefix ex: <http://www.ics.forth.gr/example#> .
        ex:A rdfs:subClassOf ex:B .
        ex:B rdfs:subClassOf ex:C .
        ex:C rdfs:subClassOf ex:D .
        ex:x a ex:A .
        ex:y a ex:C .
        ex:p1 ex:knows ex:p2 .
        ex:p2 ex:knows ex:p3 .
        ex:p3 ex:knows ex:p1 .
        ex:p1 ex:likes ex:p4 .
        ex:p4 ex:name "Dora" .
        """
    )


class TestSequenceAndInverse:
    def test_sequence(self, g):
        res = query(g, "SELECT ?n WHERE { ex:p1 ex:likes/ex:name ?n }")
        assert res[0]["n"] == Literal("Dora")

    def test_inverse_step(self, g):
        # x ^p y  ⟺  y p x: ?s ^knows p2 means "p2 knows ?s".
        res = query(g, "SELECT ?s WHERE { ?s ^ex:knows ex:p2 }")
        assert [row["s"] for row in res] == [EX.p3]
        res = query(g, "SELECT ?s WHERE { ex:p2 ^ex:knows ?s }")
        assert [row["s"] for row in res] == [EX.p1]

    def test_inverse_inside_sequence(self, g):
        res = query(g, "SELECT DISTINCT ?z WHERE { ex:p2 ^ex:knows/ex:likes ?z }")
        assert {row["z"] for row in res} == {EX.p4}


class TestQuantifiers:
    def test_one_or_more(self, g):
        res = query(g, "SELECT ?c WHERE { ex:A rdfs:subClassOf+ ?c }")
        assert {row["c"] for row in res} == {EX.B, EX.C, EX.D}

    def test_zero_or_more_includes_start(self, g):
        res = query(g, "SELECT ?c WHERE { ex:A rdfs:subClassOf* ?c }")
        assert {row["c"] for row in res} == {EX.A, EX.B, EX.C, EX.D}

    def test_zero_or_one(self, g):
        res = query(g, "SELECT ?c WHERE { ex:A rdfs:subClassOf? ?c }")
        assert {row["c"] for row in res} == {EX.A, EX.B}

    def test_cycle_terminates(self, g):
        res = query(g, "SELECT ?y WHERE { ex:p1 ex:knows+ ?y }")
        assert {row["y"] for row in res} == {EX.p1, EX.p2, EX.p3}

    def test_star_with_bound_object(self, g):
        res = query(g, "SELECT ?s WHERE { ?s rdfs:subClassOf+ ex:D }")
        assert {row["s"] for row in res} == {EX.A, EX.B, EX.C}

    def test_type_with_subclass_closure(self, g):
        """The classic instance query: ?x rdf:type/rdfs:subClassOf* ?t."""
        res = query(g, "SELECT ?t WHERE { ex:x rdf:type/rdfs:subClassOf* ?t }")
        assert {row["t"] for row in res} == {EX.A, EX.B, EX.C, EX.D}

    def test_fully_bound_check(self, g):
        assert query(g, "ASK { ex:A rdfs:subClassOf+ ex:D }") is True
        assert query(g, "ASK { ex:D rdfs:subClassOf+ ex:A }") is False


class TestAlternatives:
    def test_alternative(self, g):
        res = query(g, "SELECT ?v WHERE { ex:p1 (ex:knows|ex:likes) ?v }")
        assert {row["v"] for row in res} == {EX.p2, EX.p4}

    def test_alternative_with_quantifier(self, g):
        res = query(g, "SELECT ?v WHERE { ex:p1 (ex:knows|ex:likes)+ ?v }")
        assert {row["v"] for row in res} == {EX.p1, EX.p2, EX.p3, EX.p4}

    def test_grouped_sequence(self, g):
        res = query(
            g, "SELECT ?c WHERE { ex:A (rdfs:subClassOf/rdfs:subClassOf) ?c }"
        )
        assert [row["c"] for row in res] == [EX.C]


class TestUnboundEndpoints:
    def test_both_endpoints_variable(self, g):
        res = query(g, "SELECT ?a ?b WHERE { ?a ex:knows+ ?b }")
        pairs = {(row["a"], row["b"]) for row in res}
        assert (EX.p1, EX.p3) in pairs
        assert len(pairs) == 9  # 3 nodes × 3 reachable each

    def test_same_variable_both_ends(self, g):
        res = query(g, "SELECT ?a WHERE { ?a ex:knows+ ?a }")
        assert {row["a"] for row in res} == {EX.p1, EX.p2, EX.p3}

    def test_star_zero_length_reflexivity(self, g):
        res = query(g, "SELECT ?b WHERE { ?b ex:nosuch* ex:p4 }")
        # zero-length: p4 reaches itself even with an unused predicate
        assert EX.p4 in {row["b"] for row in res}


class TestLiteralAndUnseenEnds:
    """A literal is the source of no edge but the target of many: an
    inverse step may start from one.  A term the store never saw is
    reached by the zero-length walk only."""

    @pytest.fixture()
    def chain(self):
        return parse(
            """
            @prefix ex: <http://www.ics.forth.gr/example#> .
            ex:a ex:p ex:m .
            ex:a ex:p ex:a .
            ex:m ex:q 5 .
            """
        )

    @pytest.mark.parametrize("path", ["ex:p/ex:q", "ex:p+/ex:q"])
    def test_sequence_into_a_bound_literal(self, chain, path):
        res = query(chain, f"SELECT DISTINCT ?s WHERE {{ ?s {path} 5 }}")
        assert [row["s"] for row in res] == [EX.a]
        res = query(chain, "SELECT ?s WHERE { ?s ex:p ?m . ?m ex:q 5 }")
        assert [row["s"] for row in res] == [EX.a]

    def test_alternative_into_a_bound_literal(self, chain):
        res = query(chain, "SELECT ?s WHERE { ?s (ex:q|ex:r) 5 }")
        assert [row["s"] for row in res] == [EX.m]

    def test_zero_length_from_an_unseen_term(self, chain):
        assert query(chain, "ASK { ex:nowhere ex:p* ex:nowhere }") is True
        assert query(chain, "ASK { ex:nowhere ex:p? ex:nowhere }") is True
        assert query(chain, "ASK { ex:nowhere ex:p+ ex:nowhere }") is False
        assert query(chain, "ASK { ex:nowhere ex:p* ex:elsewhere }") is False
        res = query(chain, "SELECT ?x WHERE { ex:nowhere (ex:p|ex:q*) ?x }")
        assert [row["x"] for row in res] == [EX.nowhere]
        res = query(chain, "SELECT ?x WHERE { ex:nowhere ex:p?/ex:q ?x }")
        assert len(res) == 0
        res = query(chain, 'SELECT ?x WHERE { ?x ex:q* "unseen" }')
        assert [row["x"] for row in res] == [Literal("unseen")]


# -- a sequence path ≡ its chain of triple patterns ---------------------
_PATH_NODES = [EX.term(f"n{i}") for i in range(3)]
_PATH_LITERALS = [Literal.of(5), Literal.of("five")]
_PATH_TEMP = EX.temp
_PATH_PREDICATES = [EX.p, EX.q, RDF.type]

_path_graphs = st.lists(st.tuples(
    st.sampled_from(_PATH_NODES),
    st.sampled_from(_PATH_PREDICATES),
    st.sampled_from(_PATH_NODES + _PATH_LITERALS + [_PATH_TEMP]),
), min_size=4, max_size=20)
#: A variable, a bound IRI or a term the store never saw — and at the
#: object end a bound literal too (SPARQL has no literal subject).
_bound_iris = st.sampled_from(_PATH_NODES + [_PATH_TEMP, EX.nowhere])
_path_starts = st.one_of(st.none(), _bound_iris)
_path_ends = st.one_of(st.none(), _bound_iris,
                       st.sampled_from(_PATH_LITERALS + [Literal.of(99)]))
_path_steps = st.lists(st.tuples(st.sampled_from(_PATH_PREDICATES),
                                 st.booleans()), min_size=1, max_size=3)


def _distinct(store, text):
    return {frozenset(row.items()) for row in query(store, text)}


@given(_path_graphs, st.sets(st.sampled_from(_PATH_NODES)), _path_starts,
       _path_ends, _path_steps)
@example(triples=[(_PATH_NODES[0], EX.p, _PATH_NODES[1]),
                  (_PATH_NODES[1], EX.q, _PATH_LITERALS[0])],
         members=set(), start=None, end=_PATH_LITERALS[0],
         steps=[(EX.p, False), (EX.q, False)])
@settings(max_examples=200, deadline=None)
def test_sequence_path_equals_its_chain(triples, members, start, end, steps):
    """``S p1/^p2/p3 O`` has the DISTINCT bindings of ``S p1 ?m1 .
    ?m2 p2 ?m1 . ?m2 p3 O`` (a literal ``O`` bound through ``VALUES``)
    — whichever end is a bound IRI, a bound
    literal, a term the store never saw or a variable — over a flat
    store, three shards and an extension view whose virtual
    ``rdf:type`` triples the steps may cross."""
    s = "?s" if start is None else start.n3()
    o = "?o" if end is None else end.n3()
    path = "/".join(("^" if inverse else "") + p.n3() for p, inverse in steps)
    # a literal may not be written as a subject, so the chain binds it
    tail, values = ("?end", f"VALUES ?end {{ {o} }} ") if isinstance(
        end, Literal) else (o, "")
    hops = [s] + [f"?m{i}" for i in range(1, len(steps))] + [tail]
    chain = values + " . ".join(
        f"{hops[i + 1]} {p.n3()} {hops[i]}" if inverse
        else f"{hops[i]} {p.n3()} {hops[i + 1]}"
        for i, (p, inverse) in enumerate(steps))
    flat = Graph(triples)
    for store in (flat, ShardedGraph.from_graph(flat, shards=3),
                  ExtensionView(flat, _PATH_TEMP, members)):
        assert (_distinct(store, f"SELECT DISTINCT ?s ?o WHERE {{ {s} {path} {o} }}")
                == _distinct(store, f"SELECT DISTINCT ?s ?o WHERE {{ {chain} }}"))


class TestPathParsingErrors:
    def test_inverse_of_group_rejected(self, g):
        with pytest.raises(SparqlParseError):
            query(g, "SELECT ?x WHERE { ?x ^(ex:a/ex:b) ?y }")

    def test_paths_in_construct_template_rejected(self, g):
        with pytest.raises(SparqlParseError):
            query(g, "CONSTRUCT { ?s ex:a/ex:b ?o } WHERE { ?s ?p ?o }")
