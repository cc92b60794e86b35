"""The sharded data plane: partitioning, stats roll-up, equivalence.

The contract under test is the one DESIGN.md states: a
:class:`~repro.rdf.sharding.ShardedGraph` is *indistinguishable* from
the flat store through every read API — pattern matching, the id-level
accessors the engines consume, cardinality stats — and through every
analytic surface (``all_facets``, HIFUN under both engines), at any
shard count.  The shards are plain ``Graph`` slices sharing the parent's
dictionary, so their state is checked through the public ``Graph`` API:
mutation keeps every slice exactly as tight as a never-touched one (the
PR-2 pruning guarantees, here crossed with shards).
"""

import random

import pytest

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.facets import FacetedAnalyticsSession, FacetedSession
from repro.hifun import Attribute, HifunQuery, compose
from repro.hifun.evaluator import evaluate_hifun
from repro.hifun.evaluator import evaluate_hifun_row
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.sharding import ShardedGraph
from repro.rdf.terms import Literal

SHARD_COUNTS = (1, 2, 4, 7)


def seeded_graph(seed: int = 11, items: int = 40) -> Graph:
    """A ragged random product graph (multi-valued and missing values)."""
    rng = random.Random(seed)
    graph = Graph()
    makers = [EX[f"maker{i}"] for i in range(6)]
    countries = [EX[f"country{i}"] for i in range(3)]
    for index, who in enumerate(makers):
        graph.add(who, EX.origin, countries[index % 3])
    for i in range(items):
        item = EX[f"item{i}"]
        graph.add(item, RDF.type, EX.Widget)
        graph.add(item, EX.maker, rng.choice(makers))
        if rng.random() < 0.3:
            graph.add(item, EX.maker, rng.choice(makers))
        if rng.random() < 0.8:
            graph.add(item, EX.price, Literal.of(rng.randrange(10, 500)))
        if rng.random() < 0.5:
            graph.add(item, EX.ports, Literal.of(rng.randrange(0, 4)))
    return graph


def rollup(store: ShardedGraph):
    """Recompute the global stats from the slices, brute force."""
    size = sum(len(piece) for piece in store.shards)
    pred_count = {}
    for piece in store.shards:
        for pred, n in piece.predicate_counts().items():
            pred_count[pred] = pred_count.get(pred, 0) + n
    return size, pred_count


class TestPartitioning:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_from_graph_partitions_by_subject_hash(self, shards):
        graph = seeded_graph()
        store = ShardedGraph.from_graph(graph, shards=shards)
        assert store.num_shards == shards
        assert len(store) == len(graph)
        assert set(store) == set(graph)
        for index, piece in enumerate(store.shards):
            for si in piece.all_subject_ids():
                assert si % shards == index
        # Slice sizes partition the triple count, and every non-empty
        # slice's subjects are disjoint from every other's.
        assert sum(map(len, store.shards)) == len(store)
        seen = set()
        for piece in store.shards:
            subjects = piece.all_subjects()
            assert not (subjects & seen)
            seen |= subjects

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_stats_rollup_matches_shards(self, shards):
        store = ShardedGraph.from_graph(seeded_graph(), shards=shards)
        size, pred_count = rollup(store)
        assert size == len(store)
        assert pred_count == store.predicate_counts()
        assert store.predicate_counts() == seeded_graph().predicate_counts()

    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ValueError):
            ShardedGraph(shards=0)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_slices_share_the_parents_dictionary(self, shards):
        """An id means the same term in every slice: the slices intern
        into the parent's dictionary, whether the store was repartitioned
        from a flat one or grown triple by triple."""
        graph = seeded_graph()
        repartitioned = ShardedGraph.from_graph(graph, shards=shards)
        grown = ShardedGraph(shards=shards)
        for store in (repartitioned, grown):
            store.add(EX.fresh, EX.maker, EX.maker0)
            store.add(EX.maker0, EX.partner, EX.fresh)
            for piece in store.shards:
                assert piece.dictionary is store.dictionary
            fresh_id = store.encode_term(EX.fresh)
            assert all(piece.encode_term(EX.fresh) == fresh_id
                       for piece in store.shards)
            assert sum(len(piece) for piece in store.shards) == len(store)
        assert repartitioned.dictionary is not graph.dictionary
        assert graph.encode_term(EX.fresh) is None

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_pattern_matching_identical(self, shards):
        graph = seeded_graph()
        store = ShardedGraph.from_graph(graph, shards=shards)
        item = EX.item3
        patterns = [
            (None, None, None),
            (item, None, None),
            (None, EX.maker, None),
            (None, None, EX.maker1),
            (item, EX.maker, None),
            (item, None, EX.maker1),
            (None, EX.maker, EX.maker1),
            (item, RDF.type, EX.Widget),
        ]
        for s, p, o in patterns:
            assert (sorted(store.triples(s, p, o))
                    == sorted(graph.triples(s, p, o))), (s, p, o)
            for triple in graph.triples(s, p, o):
                assert triple in store

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_id_accessors_merge_across_shards(self, shards):
        graph = seeded_graph()
        store = ShardedGraph.from_graph(graph, shards=shards)
        # Same dictionary ids (the clone keeps assignments), so id-level
        # results are directly comparable.
        maker_id = store.encode_term(EX.maker)
        assert maker_id == graph.encode_term(EX.maker)
        assert store.pos_ids(maker_id) == graph.pos_ids(maker_id)
        for oi in list(graph.all_objects())[:20]:
            assert store.subjects_ids(maker_id, oi) == graph.subjects_ids(
                maker_id, oi)
        assert sorted(store.all_subject_ids()) == sorted(graph.all_subject_ids())
        assert set(store.all_predicate_ids()) == set(graph.all_predicate_ids())
        assert set(store.all_objects()) == set(graph.all_objects())
        for si in list(graph.all_subject_ids())[:20]:
            assert store.spo_ids(si) == graph.spo_ids(si)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_resource_ids_drop_exactly_the_literals(self, shards):
        """Subjects, objects-only IRIs and literals mixed: both stores
        keep what a decode of every id keeps."""
        graph = seeded_graph()
        store = ShardedGraph.from_graph(graph, shards=shards)
        ids = frozenset(range(len(graph.dictionary)))
        kept = {i for i in ids
                if not isinstance(graph.decode_id(i), Literal)}
        assert graph.resource_ids(ids) == store.resource_ids(ids) == kept
        assert EX.country0 in graph.decode_ids(kept - set(
            graph.all_subject_ids()))  # an object-only IRI is kept

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_copy_preserves_shardedness(self, shards):
        store = ShardedGraph.from_graph(seeded_graph(), shards=shards)
        clone = store.copy()
        assert isinstance(clone, ShardedGraph)
        assert clone.num_shards == shards
        assert set(clone) == set(store)
        assert rollup(clone) == rollup(store)
        assert list(map(len, clone.shards)) == list(map(len, store.shards))


def terms(store: Graph):
    """What the store's index keys list: subjects, predicates, objects."""
    return store.all_subjects(), store.all_predicates(), store.all_objects()


def untouched_slices(store: ShardedGraph):
    """Every slice as a fresh ``Graph`` holding the same triples — what
    a slice must still equal, stats included, after a round trip."""
    return [Graph(piece.triples()) for piece in store.shards]


def assert_slices_equal(store: ShardedGraph, expected) -> None:
    for piece, fresh in zip(store.shards, expected):
        assert piece == fresh
        assert len(piece) == len(fresh)
        assert piece.predicate_counts() == fresh.predicate_counts()
        assert terms(piece) == terms(fresh)


class TestShardStatsExactness:
    """PR-2's pruning guarantees, crossed with the shard axis: add →
    remove cycles leave every slice equal to a never-touched one, and
    the per-slice stats never hold zero or stale entries."""

    @pytest.mark.parametrize("shards", (2, 4, 7))
    def test_add_remove_cycle_restores_every_shard(self, shards):
        store = ShardedGraph.from_graph(seeded_graph(), shards=shards)
        before = untouched_slices(store)
        generation = store.generation
        subjects = [EX[f"item{i}"] for i in range(12)]
        for cycle in range(3):
            for s in subjects:
                assert store.add(s, RDF.type, EX.temp)
            for s in subjects:
                assert store.remove(s, RDF.type, EX.temp)
            assert_slices_equal(store, before)
        # Generation algebra: +1 per add, +1 per remove, per cycle.
        assert store.generation == generation + 3 * 2 * len(subjects)

    @pytest.mark.parametrize("shards", (2, 4, 7))
    def test_sparql_run_never_touches_a_shard(self, shards):
        store = ShardedGraph.from_graph(seeded_graph(), shards=shards)
        session = FacetedAnalyticsSession(store, closed=True)
        session.select_class(EX.Widget)
        session.group_by((EX.maker,))
        session.measure((EX.price,), "AVG")
        before = untouched_slices(store)
        generation = store.generation
        frame = session.run("sparql")
        assert frame.rows == session.run("native").rows
        assert_slices_equal(store, before)
        assert store.generation == generation

    @pytest.mark.parametrize("shards", (2, 4))
    def test_removing_a_predicate_prunes_every_shard(self, shards):
        store = ShardedGraph.from_graph(seeded_graph(), shards=shards)
        price_id = store.encode_term(EX.price)
        for s, p, o in list(store.triples(None, EX.price, None)):
            assert store.remove(s, p, o)
        assert store.count(None, EX.price, None) == 0
        assert EX.price not in store.predicate_counts()
        for piece in store.shards:
            assert EX.price not in piece.predicate_counts()
            assert price_id not in piece.all_predicate_ids()

    def test_removing_everything_empties_every_shard(self):
        store = ShardedGraph.from_graph(seeded_graph(items=10), shards=4)
        for s, p, o in list(store):
            store.remove(s, p, o)
        assert len(store) == 0
        for piece in store.shards:
            assert piece == Graph() and len(piece) == 0
            assert piece.predicate_counts() == {}
            assert terms(piece) == (set(), set(), set())


class TestAnalyticInvariance:
    """Satellite 5's tier-1 pin: shard count changes nothing observable
    in the session surfaces."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_all_facets_invariant_under_shard_count(self, shards):
        graph = seeded_graph(seed=23)
        flat = FacetedSession(graph)
        flat.select_class(EX.Widget)
        session = FacetedSession(ShardedGraph.from_graph(graph, shards=shards))
        session.select_class(EX.Widget)
        for include_inverse in (False, True):
            assert (session.all_facets(include_inverse)
                    == flat.all_facets(include_inverse))

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_analytic_query_invariant_under_shard_count(self, shards):
        graph = seeded_graph(seed=23)
        query = HifunQuery(
            compose(Attribute(EX.origin), Attribute(EX.maker)),
            Attribute(EX.price), ("AVG", "COUNT"))
        reference = evaluate_hifun_row(graph, query, root_class=EX.Widget)
        store = ShardedGraph.from_graph(graph, shards=shards)
        answer = evaluate_hifun(store, query, root_class=EX.Widget)
        assert answer.rows() == reference.rows()

    @pytest.mark.parametrize("shards", (1, 4))
    def test_closure_session_preserves_shardedness(self, shards):
        store = ShardedGraph.from_graph(
            synthetic_graph(SyntheticConfig(laptops=30, seed=7)),
            shards=shards)
        session = FacetedAnalyticsSession(store)
        assert session.graph.num_shards == shards
        flat = FacetedAnalyticsSession(
            synthetic_graph(SyntheticConfig(laptops=30, seed=7)))
        session.select_class(EX.Laptop)
        flat.select_class(EX.Laptop)
        assert session.all_facets() == flat.all_facets()
        for who in (session, flat):
            who.group_by((EX.manufacturer,))
            who.measure((EX.price,), "AVG")
        assert session.run("native").rows == flat.run("row").rows
