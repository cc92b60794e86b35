"""Tests of the keyword-search access method (§2.2, §5.4.1)."""

import pytest

from repro.rdf.namespace import EX
from repro.datasets import products_graph
from repro.facets import FacetedSession
from repro.search import KeywordIndex
from repro.search.keyword import tokenize


class TestTokenizer:
    def test_basic(self):
        assert tokenize("hello world") == ["hello", "world"]

    def test_camel_case_split(self):
        assert tokenize("releaseDate") == ["release", "date"]
        assert tokenize("USBPorts") == ["usbports"]

    def test_alphanumerics_only(self):
        assert tokenize("a-b_c.d") == ["a", "b", "c", "d"]

    def test_letter_digit_boundary_split(self):
        assert tokenize("laptop1") == ["laptop", "1"]


@pytest.fixture(scope="module")
def index():
    return KeywordIndex(products_graph())


class TestSearch:
    def test_own_name_match(self, index):
        hits = index.search("laptop1")
        assert hits[0].resource == EX.laptop1

    def test_neighbour_match(self, index):
        # "dell" matches DELL itself (own name) and the laptops that
        # point at it (neighbour names).
        hits = index.search("dell")
        resources = {h.resource for h in hits}
        assert EX.DELL in resources
        assert {EX.laptop1, EX.laptop2} <= resources

    def test_own_name_outranks_neighbours(self, index):
        hits = index.search("dell")
        assert hits[0].resource == EX.DELL

    def test_multi_token_or(self, index):
        hits = index.search("dell lenovo")
        resources = {h.resource for h in hits}
        assert {EX.DELL, EX.Lenovo} <= resources

    def test_limit(self, index):
        assert len(index.search("laptop", limit=2)) == 2

    def test_no_match(self, index):
        assert index.search("zzzunknown") == []

    def test_rare_terms_outweigh_common(self, index):
        # "maxtor" is rarer than "us": a maxtor hit should rank above a
        # pure-us hit for the combined query among drive resources.
        hits = index.search("maxtor")
        assert hits[0].resource == EX.Maxtor

    def test_schema_nodes_not_indexed(self, index):
        hits = index.search("laptop")
        assert EX.Laptop not in {h.resource for h in hits}

    def test_deterministic_order(self, index):
        assert [h.resource for h in index.search("laptop")] == [
            h.resource for h in index.search("laptop")
        ]


class TestSearchSeedsSession:
    def test_results_start_a_session(self, index):
        graph = products_graph()
        hits = index.search("dell", limit=5)
        session = FacetedSession(graph, results=[h.resource for h in hits])
        assert set(session.extension) == {h.resource for h in hits}
        # The seeded state still offers facets and transitions.
        facets = session.all_facets()
        assert facets
