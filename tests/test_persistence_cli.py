"""Tests of session persistence (save/replay) and the CLI shell."""

import datetime
import json

import pytest

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.datasets import products_graph
from repro.app import AnalyticsShell
from repro.facets import FacetedAnalyticsSession
from repro.facets.persistence import (
    replay_session,
    session_to_dict,
    session_to_json,
    term_from_dict,
    term_to_dict,
)

#: ``session_to_json(..., indent=None)`` of the four-kinds session below,
#: as written by commit 1777b5d (before a saved click became its
#: condition's fields) — ``ex:`` stands for the example namespace.
PARENT_V1 = (
    '{"root_class": "ex:Laptop", "seeds": null, "conditions": ['
    '{"action": "class", "cls": "ex:Product"}, '
    '{"action": "value", "path": [{"prop": "ex:manufacturer", "inverse": false},'
    ' {"prop": "ex:origin", "inverse": false}],'
    ' "value": {"kind": "iri", "value": "ex:US"}}, '
    '{"action": "range", "path": [{"prop": "ex:USBPorts", "inverse": false}],'
    ' "comparator": ">=", "value": {"kind": "literal", "value": "2", "datatype":'
    ' "http://www.w3.org/2001/XMLSchema#integer", "language": ""}}, '
    '{"action": "values", "path": [{"prop": "ex:hardDrive", "inverse": false}],'
    ' "values": [{"kind": "iri", "value": "ex:SSD1"},'
    ' {"kind": "iri", "value": "ex:SSD2"}]}], "version": 1, "groups": ['
    '{"path": [{"prop": "ex:manufacturer", "inverse": false}], "derived": null}, '
    '{"path": [{"prop": "ex:releaseDate", "inverse": false}], "derived": "YEAR"}],'
    ' "measure": {"path": [{"prop": "ex:price", "inverse": false}],'
    ' "operations": ["AVG", "MAX"], "derived": null}}'
).replace("ex:", EX.term("").value)

_PATH = '[{"prop": "ex:price"}]'
_TERM = '{"kind": "iri", "value": "ex:US"}'
#: (what a saved session may hold, the key its rejection names)
MALFORMED = [
    ('[1, 2]', "version"),
    ('{"version": "1"}', "version"),
    ('{"version": 1, "root_class": 5}', "root_class"),
    ('{"version": 1, "seeds": [1]}', "kind"),
    ('{"version": 1, "seeds": [{"kind": "iri"}]}', "value"),
    ('{"version": 1, "seeds": [{"kind": "literal", "value": "1"}]}', "datatype"),
    ('{"version": 1, "conditions": {}}', "conditions"),
    ('{"version": 1, "conditions": [{"path": []}]}', "action"),
    ('{"version": 1, "conditions": [{"action": "jump"}]}', "jump"),
    # one per entry of the field table
    ('{"version": 1, "conditions": [{"action": "class", "cls": 5}]}', "cls"),
    ('{"version": 1, "conditions": [{"action": "value"}]}', "path"),
    ('{"version": 1, "conditions": [{"action": "value", "path": [],'
     ' "value": %s}]}' % _TERM, "path"),
    ('{"version": 1, "conditions": [{"action": "value", "path": [{}],'
     ' "value": %s}]}' % _TERM, "prop"),
    ('{"version": 1, "conditions": [{"action": "value", "path": '
     '[{"prop": "ex:p", "inverse": "no"}], "value": %s}]}' % _TERM, "inverse"),
    ('{"version": 1, "conditions": [{"action": "value", "path": %s,'
     ' "value": "US"}]}' % _PATH, "value"),
    ('{"version": 1, "conditions": [{"action": "values", "path": %s,'
     ' "values": {}}]}' % _PATH, "values"),
    ('{"version": 1, "conditions": [{"action": "range", "path": %s,'
     ' "value": %s}]}' % (_PATH, _TERM), "comparator"),
    ('{"version": 1, "conditions": [{"action": "range", "path": %s,'
     ' "comparator": "=>", "value": %s}]}' % (_PATH, _TERM), "=>"),
    # pivot, groups, measure, with_count
    ('{"version": 1, "pivot": {"path": %s}}' % _PATH, "inner"),
    ('{"version": 1, "pivot": {"inner": {}, "path": 7}}', "path"),
    ('{"version": 1, "groups": [{}]}', "path"),
    ('{"version": 1, "groups": [{"path": %s, "derived": 1}]}' % _PATH, "derived"),
    ('{"version": 1, "measure": []}', "measure"),
    ('{"version": 1, "measure": {"path": %s}}' % _PATH, "operations"),
    ('{"version": 1, "measure": {"path": %s, "operations": [1]}}' % _PATH,
     "operations"),
    ('{"version": 1, "with_count": "yes"}', "with_count"),
]


def run_script(shell, lines):
    """The shell's output for each line, in order."""
    return [shell.execute(line) for line in lines]


class TestTermSerialization:
    @pytest.mark.parametrize(
        "term",
        [
            EX.laptop1,
            Literal.of(5),
            Literal.of(2.5),
            Literal.of(datetime.date(2021, 6, 10)),
            Literal("hi", "http://www.w3.org/2001/XMLSchema#string", "en"),
        ],
    )
    def test_roundtrip(self, term):
        assert term_from_dict(term_to_dict(term)) == term

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            term_from_dict({"kind": "alien", "value": "x"})


class TestSessionPersistence:
    def build(self, graph):
        session = FacetedAnalyticsSession(graph)
        session.select_class(EX.Laptop)
        session.select_value((EX.manufacturer, EX.origin), EX.US)
        session.select_range((EX.USBPorts,), ">=", Literal.of(2))
        session.select_values((EX.hardDrive,), [EX.SSD1, EX.SSD2])
        session.group_by((EX.manufacturer,))
        session.group_by((EX.releaseDate,), derived="YEAR")
        session.measure((EX.price,), ("AVG", "MAX"))
        return session

    def test_replay_restores_extension_and_answer(self):
        graph = products_graph()
        session = self.build(graph)
        data = session_to_json(session)
        restored = replay_session(products_graph(), data)
        assert set(restored.extension) == set(session.extension)
        original = session.run()
        replayed = restored.run()
        assert original.columns == replayed.columns
        assert [tuple(r) for r in original.rows] == [tuple(r) for r in replayed.rows]

    def test_json_is_plain_data(self):
        session = self.build(products_graph())
        parsed = json.loads(session_to_json(session))
        assert parsed["version"] == 1
        assert parsed["root_class"].endswith("Laptop")
        assert len(parsed["groups"]) == 2

    def test_seeded_session_roundtrip(self):
        graph = products_graph()
        session = FacetedAnalyticsSession(graph, results=[EX.laptop1, EX.laptop3])
        session.count_items()
        restored = replay_session(graph, session_to_dict(session))
        assert set(restored.extension) == {EX.laptop1, EX.laptop3}

    def test_count_measure_roundtrip(self):
        graph = products_graph()
        session = FacetedAnalyticsSession(graph)
        session.select_class(EX.Laptop)
        session.count_items()
        restored = replay_session(graph, session_to_dict(session))
        assert restored.measure_spec.path is None
        assert restored.measure_spec.operations == ("COUNT",)

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError):
            replay_session(products_graph(), {"version": 99})

    def test_four_kinds_session_byte_for_byte_and_the_parents_file_loads(self):
        """A saved click is its condition's fields — which are the
        version-1 keys, in the version-1 order."""
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        session.select_class(EX.Product)
        session.select_value((EX.manufacturer, EX.origin), EX.US)
        session.select_range((EX.USBPorts,), ">=", Literal.of(2))
        session.select_values((EX.hardDrive,), [EX.SSD1, EX.SSD2])
        session.group_by((EX.manufacturer,))
        session.group_by((EX.releaseDate,), derived="YEAR")
        session.measure((EX.price,), ("AVG", "MAX"))
        assert session_to_json(session, indent=None) == PARENT_V1
        restored = replay_session(products_graph(), PARENT_V1)
        assert restored.state.intention == session.state.intention
        assert set(restored.extension) == set(session.extension)
        assert restored.group_specs == session.group_specs
        assert restored.measure_spec == session.measure_spec
        assert session_to_json(restored, indent=None) == PARENT_V1

    def test_with_count_survives_save_and_load(self):
        graph = products_graph()
        session = FacetedAnalyticsSession(graph)
        session.group_by(EX.manufacturer)
        session.measure(EX.price, "AVG")
        assert "with_count" not in session_to_dict(session)  # off: as before
        session.with_count()
        saved = session_to_dict(session)
        assert saved["with_count"] is True and saved["version"] == 1
        restored = replay_session(graph, json.dumps(saved))
        assert restored.run().columns == session.run().columns == (
            "manufacturer", "avg_price", "count_items")
        del saved["with_count"]  # an older file: absent reads as off
        assert replay_session(graph, saved).run().columns == (
            "manufacturer", "avg_price")

    @pytest.mark.parametrize("document, key", MALFORMED)
    def test_malformed_saved_session_is_a_value_error_naming_the_key(
            self, document, key):
        document = document.replace("ex:", EX.term("").value)
        with pytest.raises(ValueError, match=key):
            replay_session(products_graph(), document)


class TestShell:
    @pytest.fixture()
    def shell(self):
        return AnalyticsShell(products_graph())

    def test_classes_command(self, shell):
        out = shell.execute("classes")
        assert "Company (4)" in out and "Product (6)" in out

    def test_full_analytic_flow(self, shell):
        outputs = run_script(shell, [
            "select laptop",
            "filter usbports >= 2",
            "group manufacturer",
            "measure price AVG",
            "run",
        ])
        assert "3 objects" in outputs[0]
        assert "avg_price" in outputs[-1]
        assert "DELL" in outputs[-1]

    def test_value_click_by_label(self, shell):
        shell.execute("select laptop")
        out = shell.execute("value manufacturer DELL")
        assert "2 objects" in out

    def test_path_expansion_command(self, shell):
        shell.execute("select laptop")
        out = shell.execute("expand hardDrive/manufacturer")
        assert "Maxtor (2)" in out

    def test_unknown_command_is_graceful(self, shell):
        assert "unknown command" in shell.execute("frobnicate")

    def test_bad_value_reports_options(self, shell):
        shell.execute("select laptop")
        out = shell.execute("value manufacturer Apple")
        assert out.startswith("error:") and "DELL" in out

    def test_empty_transition_is_reported_not_raised(self, shell):
        shell.execute("select laptop")
        out = shell.execute("filter price > 99999")
        assert out.startswith("error:")

    def test_sparql_and_intent(self, shell):
        run_script(shell, ["select laptop", "group manufacturer", "count"])
        assert "GROUP BY" in shell.execute("sparql")
        assert "Laptop" in shell.execute("intent")

    def test_explore_after_run(self, shell):
        run_script(shell, ["select laptop", "group manufacturer",
                           "measure price AVG", "run"])
        out = shell.execute("explore")
        assert "new dataset" in out
        assert "avg_price" in shell.execute("facets")

    def test_explore_without_run_is_error(self, shell):
        assert shell.execute("explore").startswith("error:")

    def test_save_load_roundtrip(self, shell):
        run_script(shell, ["select laptop", "value manufacturer DELL"])
        saved = shell.execute("save")
        fresh = AnalyticsShell(products_graph())
        out = fresh.execute(f"load {saved}")
        assert "restored" in out
        assert len(fresh.session.extension) == 2

    def test_malformed_load_is_reported_and_the_session_stays_usable(self, shell):
        shell.execute("select laptop")
        for line in ('load {"version":1,"conditions":[{"action":"value"}]}',
                     'load [1,2]', 'load {"version":1,"root_class":5}',
                     'load {"version":1', 'load 7'):
            out = shell.execute(line)
            assert out.startswith("error: ") and len(out.splitlines()) == 1
            assert shell.execute("back") == "back to 'initial': 18 objects"
            assert shell.execute("select laptop") == "Laptop: 3 objects"

    def test_unknown_comparator_is_named(self, shell):
        shell.execute("select laptop")
        assert shell.execute("filter price => 900") == (
            "error: unknown comparator '=>'")
        assert shell.execute("filter price >= 900") == "price >= 900: 2 objects"

    def test_search_restarts_session(self, shell):
        out = shell.execute("search lenovo")
        assert "results" in out
        assert len(shell.session.extension) >= 1

    def test_load_opens_the_shells_kind_of_session(self):
        from repro.app.cli import build_shell
        from repro.endpoint import ResilientEndpoint

        shell = build_shell(["--analyze", "--network", "offpeak"])
        shell.execute("select laptop")
        assert "restored" in shell.execute(f"load {shell.execute('save')}")
        assert isinstance(shell.session.endpoint, ResilientEndpoint)
        assert shell.session.analyze
        assert len(shell.session.extension) == 3
        assert "circuit:" in shell.execute("health")

    def test_facets_on_a_dead_endpoint_prints_the_listings_incident(self):
        from repro.app.cli import build_shell

        shell = build_shell(["--network", "offpeak", "--fault-rate", "1",
                             "--retries", "1"])
        for _ in range(2):  # each call prints the incident it appended
            out = shell.execute("facets")
            assert out.startswith("unavailable — listing [dropped]: Endpoint")
            assert "\n" not in out
        assert len(shell.session.facet_engine.incidents) == 2

    def test_search_keeps_what_transform_wrote(self, shell):
        outputs = run_script(shell, ["select laptop", "transform count hardDrive",
                                     "search dell", "facets"])
        assert "by hardDrive_count (2): 1 (2)" in outputs[-1]

    def test_closure_is_computed_once(self, shell, monkeypatch):
        """``search`` and ``load`` open their session over the graph the
        first one closed — nothing is closed a second time."""
        import repro.rdf.rdfs as rdfs

        built = []

        class Counting(rdfs.RDFSClosure):
            def __init__(self, graph):
                built.append(len(graph))
                super().__init__(graph)

        monkeypatch.setattr(rdfs, "RDFSClosure", Counting)
        closed = shell.session.graph
        shell.execute("search dell")
        saved = shell.execute("save")
        shell.execute(f"load {saved}")
        shell.execute("search lenovo")
        assert built == []
        assert shell.session.graph is closed
        assert len(shell.session.extension) >= 1

    def test_back_command(self, shell):
        shell.execute("select laptop")
        out = shell.execute("back")
        assert "initial" in out

    def test_help_and_quit(self, shell):
        text = shell.execute("help")
        assert "select" in text
        assert text.startswith("Commands (one per line;")
        assert text.endswith("=" * 52)  # the command table's closing rule
        assert "AnalyticsShell.execute" not in text
        assert shell.running
        shell.execute("quit")
        assert not shell.running

    def test_blank_line_is_noop(self, shell):
        assert shell.execute("   ") == ""


class TestPivotPersistence:
    def test_pivot_chain_roundtrip(self):
        from repro.datasets import museum_graph

        graph = museum_graph()
        session = FacetedAnalyticsSession(graph)
        session.select_class(EX.Painting)
        session.select_value((EX.creator,), EX.VanGogh)
        session.pivot_to((EX.exhibitedAt,))
        session.select_value((EX.locatedIn, EX.country), EX.USA)
        session.group_by((EX.locatedIn,))
        session.count_items()
        restored = replay_session(museum_graph(), session_to_json(session))
        assert set(restored.extension) == set(session.extension)
        assert [tuple(r) for r in restored.run().rows] == [
            tuple(r) for r in session.run().rows
        ]

    def test_double_pivot_roundtrip(self):
        from repro.datasets import museum_graph

        graph = museum_graph()
        session = FacetedAnalyticsSession(graph)
        session.select_class(EX.Painting)
        session.pivot_to((EX.exhibitedAt,))
        session.pivot_to((EX.locatedIn,))
        restored = replay_session(museum_graph(), session_to_dict(session))
        assert set(restored.extension) == set(session.extension)

    def test_class_after_pivot_roundtrip(self):
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        session.pivot_to((EX.hardDrive,))
        session.select_class(EX.NVMe)
        restored = replay_session(products_graph(), session_to_dict(session))
        assert set(restored.extension) == set(session.extension)
        text = restored.state.intention.to_sparql()
        assert text == session.state.intention.to_sparql()
        assert EX.NVMe.n3() in text

    def test_pivot_serialization_shape(self):
        from repro.datasets import museum_graph

        session = FacetedAnalyticsSession(museum_graph())
        session.select_class(EX.Painting)
        session.pivot_to((EX.creator,))
        data = session_to_dict(session)
        assert "pivot" in data
        assert data["pivot"]["inner"]["root_class"].endswith("Painting")

    def test_restrictions_engine_rejects_pivot(self):
        from repro.datasets import museum_graph
        from repro.facets.analytics import AnalyticsStateError

        session = FacetedAnalyticsSession(museum_graph())
        session.select_class(EX.Painting)
        session.pivot_to((EX.creator,))
        session.count_items()
        with pytest.raises(AnalyticsStateError):
            session.run(engine="restrictions")
