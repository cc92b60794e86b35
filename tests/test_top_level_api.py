"""Tests of the top-level convenience API (load_graph / open_session)."""

import pytest

import repro
from repro.rdf.namespace import EX
from repro.datasets import products_graph
from repro.datasets.products import PRODUCTS_TTL
from repro.rdf import ntriples


@pytest.fixture()
def ttl_file(tmp_path):
    path = tmp_path / "products.ttl"
    path.write_text(PRODUCTS_TTL, encoding="utf-8")
    return str(path)


@pytest.fixture()
def nt_file(tmp_path):
    path = tmp_path / "products.nt"
    path.write_text(ntriples.serialize(products_graph()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def csv_file(tmp_path):
    path = tmp_path / "stats.csv"
    path.write_text("country,cases\nGreece,100\nItaly,200\n", encoding="utf-8")
    return str(path)


class TestLoadGraph:
    def test_turtle(self, ttl_file):
        assert repro.load_graph(ttl_file) == products_graph()

    def test_ntriples(self, nt_file):
        assert repro.load_graph(nt_file) == products_graph()

    def test_csv(self, csv_file):
        from repro.datasets.csv_import import STAT_ROW
        from repro.rdf.namespace import RDF

        g = repro.load_graph(csv_file)
        assert len(list(g.subjects(RDF.type, STAT_ROW))) == 2


    def test_malformed_ntriples_line_surfaces_its_number(self, nt_file):
        from repro.rdf.bulkload import BulkLoadError

        lines = ntriples.serialize(products_graph()).splitlines()
        lines.insert(4, "<http://example.org/a> <http://example.org/b> .")
        with open(nt_file, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(BulkLoadError) as caught:
            repro.load_graph(nt_file)
        assert caught.value.line == 5

    def test_long_ntriples_suffix_is_streamed_too(self, tmp_path):
        """``load_graph`` keeps no suffix list of its own: what
        ``load_file`` streams, it streams — line numbers included."""
        from repro.rdf.bulkload import BulkLoadError

        path = tmp_path / "products.ntriples"
        lines = ntriples.serialize(products_graph()).splitlines()
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert repro.load_graph(str(path)) == products_graph()
        lines.insert(2, "<http://example.org/a> <http://example.org/b> .")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(BulkLoadError) as caught:
            repro.load_graph(str(path))
        assert caught.value.line == 3

    def test_other_suffixes_are_read_as_turtle(self, tmp_path):
        path = tmp_path / "products.rdf"
        path.write_text(PRODUCTS_TTL, encoding="utf-8")
        assert repro.load_graph(str(path)) == products_graph()


class TestShellOnAFile:
    """``python -m repro.app <file>`` opens what ``load_graph`` loads."""

    def test_turtle_and_ntriples_give_the_same_shell(self, ttl_file, nt_file):
        from repro.app.cli import build_shell

        outputs = []
        for path in (ttl_file, nt_file):
            shell = build_shell([path])
            outputs.append([shell.execute(command) for command in
                            ("classes -x", "facets", "select Laptop", "facets")])
        assert outputs[0] == outputs[1]
        assert "Laptop (3)" in outputs[0][0]
        assert "manufacturer" in outputs[0][3]

    def test_csv_opens(self, csv_file):
        from repro.app.cli import build_shell

        shell = build_shell([csv_file])
        assert "Row (2)" in shell.execute("classes")
        assert "cases" in shell.execute("facets")


class TestOpenSession:
    def test_from_graph(self):
        session = repro.open_session(products_graph())
        session.select_class(EX.Laptop)
        assert len(session.extension) == 3

    def test_from_path(self, ttl_file):
        session = repro.open_session(ttl_file)
        session.select_class(EX.Laptop)
        session.group_by((EX.manufacturer,))
        session.measure((EX.price,), "AVG")
        assert len(session.run()) == 2

    def test_version_present(self):
        assert repro.__version__
