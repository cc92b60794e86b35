"""Tests of the browsing access method (§1.2(i) / §2.2)."""

import pytest

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.datasets import products_graph
from repro.facets.browser import ResourceBrowser


@pytest.fixture()
def browser():
    return ResourceBrowser(products_graph(), EX.laptop1)


class TestViewing:
    def test_card_contents(self, browser):
        card = browser.view()
        assert card.label == "laptop1"
        assert EX.Laptop in card.types
        properties = {p.local_name() for p, _ in card.outgoing}
        assert {"manufacturer", "price", "hardDrive"} <= properties

    def test_incoming_links(self, browser):
        card = browser.view(EX.DELL)
        sources = {s for s, _ in card.incoming}
        assert {EX.laptop1, EX.laptop2} <= sources

    def test_neighbours_exclude_literals(self, browser):
        card = browser.view()
        assert all(not isinstance(n, Literal) for n in card.neighbours())
        assert EX.DELL in card.neighbours()

    def test_schema_predicates_hidden(self, browser):
        card = browser.view()
        assert all(p.local_name() != "type" for p, _ in card.outgoing)


class TestNavigation:
    def test_follow_chain(self, browser):
        browser.follow(EX.DELL)
        assert browser.current == EX.DELL
        browser.follow(EX.US)
        assert browser.current == EX.US
        assert browser.history() == [EX.laptop1, EX.DELL, EX.US]

    def test_follow_incoming_link(self, browser):
        browser.follow(EX.DELL)
        browser.follow(EX.laptop2)  # incoming: laptop2 -manufacturer-> DELL
        assert browser.current == EX.laptop2

    def test_follow_unconnected_rejected(self, browser):
        with pytest.raises(ValueError):
            browser.follow(EX.Lenovo)

    def test_back(self, browser):
        browser.follow(EX.DELL)
        browser.back()
        assert browser.current == EX.laptop1
        browser.back()  # at the start: stays
        assert browser.current == EX.laptop1


class TestSimilarity:
    def test_similar_laptops_rank_by_shared_values(self, browser):
        similar = browser.similar()
        labels = [s.label for s in similar]
        # laptop2 shares manufacturer+USBPorts with laptop1; laptop3 none
        assert labels[0] == "laptop2"
        assert similar[0].similarity > 0

    def test_similarity_restricted_to_shared_types(self):
        b = ResourceBrowser(products_graph(), EX.DELL)
        labels = {s.label for s in b.similar()}
        assert labels <= {"Lenovo", "Maxtor", "AVDElectronics"}

    def test_no_shared_values_excluded(self, browser):
        similar = browser.similar(limit=10)
        assert all(s.shared > 0 for s in similar)


class TestSeamlessTransition:
    def test_browse_to_faceted_session(self, browser):
        session = browser.to_faceted_session()
        assert EX.laptop1 in session.extension
        assert EX.DELL in session.extension
        # the seeded session is fully functional
        facets = session.all_facets()
        assert facets

    def test_without_self(self, browser):
        session = browser.to_faceted_session(include_self=False)
        assert EX.laptop1 not in session.extension


class TestShellBrowsing:
    @pytest.fixture()
    def shell(self):
        from repro.app import AnalyticsShell

        return AnalyticsShell(products_graph())

    def test_inspect_and_goto(self, shell):
        card = shell.execute("inspect laptop1")
        assert "manufacturer: DELL" in card
        dell = shell.execute("goto DELL")
        assert "^manufacturer: laptop1" in dell

    def test_similar_command(self, shell):
        shell.execute("inspect laptop1")
        out = shell.execute("similar")
        assert "laptop2" in out

    def test_goto_requires_inspect(self, shell):
        assert shell.execute("goto DELL").startswith("error:")

    def test_goto_unconnected(self, shell):
        shell.execute("inspect laptop1")
        assert shell.execute("goto Lenovo").startswith("error:")

    def test_unknown_resource(self, shell):
        assert shell.execute("inspect nosuchthing").startswith("error:")
