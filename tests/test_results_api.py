"""Tests of the result-set API (Row / SelectResult) and endpoint extras."""

import pytest

from repro.rdf import Graph
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.rdf.turtle import parse
from repro.sparql import query
from repro.sparql.results import SelectResult
from repro.endpoint import NetworkModel, RemoteEndpointSimulator


@pytest.fixture()
def result():
    g = parse(
        """
        @prefix ex: <http://www.ics.forth.gr/example#> .
        ex:a ex:p 1 . ex:b ex:p 2 . ex:c ex:q 3 .
        """
    )
    return query(g, "SELECT ?s ?v WHERE { ?s ex:p ?v } ORDER BY ?v")


class TestRow:
    def test_getitem_strips_question_mark(self, result):
        row = result[0]
        assert row["?s"] == row["s"]

    def test_get_default(self, result):
        assert result[0].get("nope", "fallback") == "fallback"

    def test_value_unwraps_literals(self, result):
        assert result[0].value("v") == 1

    def test_value_default(self, result):
        assert result[0].value("nope", default=0) == 0

    def test_contains_and_len(self, result):
        row = result[0]
        assert "s" in row and "?v" in row and "z" not in row
        assert len(row) == 2

    def test_missing_key_raises(self, result):
        with pytest.raises(KeyError):
            result[0]["nope"]

    def test_equality_with_dict(self, result):
        row = result[0]
        assert row == dict(row.items())

    def test_hashable(self, result):
        assert len({result[0], result[0]}) == 1

    def test_repr_sorted(self, result):
        text = repr(result[0])
        assert text.index("?s") < text.index("?v")


class TestSelectResult:
    def test_sequence_protocol(self, result):
        assert len(result) == 2
        assert bool(result)
        assert list(iter(result)) == [result[0], result[1]]

    def test_variables_order(self, result):
        assert result.variables == ("s", "v")

    def test_column(self, result):
        assert result.column("v") == [Literal.of(1), Literal.of(2)]

    def test_sorted_rows_deterministic(self, result):
        assert result.sorted_rows() == result.sorted_rows()

    def test_empty_result_falsy(self):
        empty = SelectResult(("x",), [])
        assert not empty and len(empty) == 0


class TestEndpointHistory:
    def test_history_accumulates(self):
        g = Graph([(EX.a, EX.p, EX.b)])
        endpoint = RemoteEndpointSimulator(g, NetworkModel.offpeak(), seed=3)
        for _ in range(5):
            endpoint.query("ASK { ?s ?p ?o }")
        assert len(endpoint.history) == 5
