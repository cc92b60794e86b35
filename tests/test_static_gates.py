"""The repo-wide static gates (`make lint` / `make typecheck`) ride tier-1:
the checker must pass over the shipped sources and must still catch the
defect classes it claims to."""

import ast
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CHECKER = REPO / "tools" / "static_check.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(CHECKER), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_lint_gate_passes_on_shipped_sources():
    result = _run("--lint", "src/repro", "tools", "benchmarks", "tests",
                  "examples", "perf")
    assert result.returncode == 0, result.stdout + result.stderr


def test_typecheck_gate_passes_on_target_packages():
    result = _run("--typecheck", "src/repro")
    assert result.returncode == 0, result.stdout + result.stderr


def test_no_module_under_src_reads_the_environment():
    """The library has no ``REPRO_*`` switch: behaviour is a function of
    arguments, never of ``os.environ`` / ``os.getenv``."""
    readers = ("environ", "environb", "getenv", "getenvb")
    found = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                found.append(f"{path.relative_to(REPO)}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.relative_to(REPO)}:{node.lineno}"
                          for alias in node.names if alias.name in readers]
    assert not found, found


RDF_SRC = REPO / "src" / "repro" / "rdf"

#: Term-level reads and writes: each decodes or re-interns per triple.
TERM_LEVEL = {"triples", "subjects", "objects", "add_all", "decode_ids",
              "all_subjects"}


def _definition(tree, *names):
    """The class or function reached from ``tree`` by following ``names``."""
    for name in names:
        tree = next(node for node in tree.body
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                    and node.name == name)
    return tree


def _attribute_calls(scopes, names):
    return [f"{node.func.attr}:{node.lineno}"
            for scope in scopes for node in ast.walk(scope)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names]


def _setup_leaves_id_space(rdfs_path=RDF_SRC / "rdfs.py"):
    """Where set-up — the store copy, the RDFS closure, the N-Triples
    loader — goes back to the Term-level API."""
    graph, sharding, bulkload, rdfs = (
        ast.parse(path.read_text(encoding="utf-8"))
        for path in (RDF_SRC / "graph.py", RDF_SRC / "sharding.py",
                     RDF_SRC / "bulkload.py", rdfs_path))
    closure = [node for node in rdfs.body
               if getattr(node, "name", None) != "SchemaView"]
    found = _attribute_calls(
        [_definition(graph, "Graph", "copy"),
         _definition(graph, "Graph", "_copy_from"),
         _definition(sharding, "ShardedGraph", "_copy_from"), *closure],
        TERM_LEVEL)
    loader = _definition(bulkload, "load_ntriples")
    found += [f"{node.attr}:{node.lineno}" for node in ast.walk(loader)
              if isinstance(node, ast.Attribute)
              and node.attr in ("add", "add_all")]
    return found


def test_setup_stays_in_id_space(tmp_path):
    """``Graph.copy``, its sharded hook, everything in ``rdfs.py`` but
    ``SchemaView``, and ``load_ntriples`` read index rows and write ids:
    copying by re-insertion and closing over decoded triples were
    ≈ 45 % of the benchmark's ``setup_s``."""
    assert _setup_leaves_id_space() == []
    planted = tmp_path / "rdfs.py"
    planted.write_text(
        (RDF_SRC / "rdfs.py").read_text(encoding="utf-8").replace(
            "        return g\n",
            "        list(g.triples(None, None, None))\n        return g\n", 1),
        encoding="utf-8")
    assert [hit.split(":")[0] for hit in _setup_leaves_id_space(planted)
            ] == ["triples"]


def _spo_readers(paths):
    """Where a module other than ``repro.rdf.graph`` names ``_spo``: as
    an attribute, a name or a string (``getattr(graph, "_spo")``)."""
    return [f"{path.name}:{node.lineno}" for path in paths
            if path != RDF_SRC / "graph.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if getattr(node, "attr", None) == "_spo"
            or getattr(node, "id", None) == "_spo"
            or getattr(node, "value", None) == "_spo"]


def test_only_the_graph_names_the_spo_map(tmp_path):
    """An SPO row is a bare id or a set of two or more objects, which
    only ``Graph`` knows: every other module reads the index through
    ``objects_ids`` / ``spo_ids``, so no caller sees a raw row."""
    assert _spo_readers(sorted((REPO / "src" / "repro").rglob("*.py"))) == []
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def lone(graph, si, pi):\n"
        "    return graph._spo[si][pi]\n", encoding="utf-8")
    assert _spo_readers([planted]) == ["planted.py:2"]


SRC = REPO / "src" / "repro"

#: What evaluates SPARQL in process, and the one module that may import
#: it: the endpoint evaluates query text, the HIFUN evaluator a
#: translation.  No module imports ``repro.sparql.evaluator`` whole.
EVALUATORS = {"query": "endpoint/endpoint.py",
              "evaluate": "endpoint/endpoint.py",
              "select_rows": "hifun/evaluator.py",
              "evaluator": None}


def _evaluator_imports(root=SRC):
    """Where a module under ``root`` — ``sparql/``, which defines them,
    aside — imports an evaluator it may not."""
    found = []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root).as_posix()
        if where.startswith("sparql/"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names
                         if "sparql" in alias.name.split(".")]
            elif (isinstance(node, ast.ImportFrom)
                  and "sparql" in (node.module or "").split(".")):
                names = [alias.name for alias in node.names
                         if alias.name in EVALUATORS]
            else:
                continue
            found += [f"{where}:{node.lineno} {name}" for name in names
                      if EVALUATORS.get(name) != where]
    return found


def test_a_press_has_two_routes(tmp_path):
    """In process, a press is evaluated by the HIFUN evaluator alone;
    SPARQL text is evaluated by the endpoint alone — so no module under
    ``facets/`` imports either evaluator.  A planted ``from repro.sparql
    import query`` in the analytics session is caught."""
    assert _evaluator_imports() == []
    for where in ("facets/analytics.py", "endpoint/endpoint.py",
                  "hifun/evaluator.py"):
        (tmp_path / where).parent.mkdir(exist_ok=True)
        (tmp_path / where).write_text(
            (SRC / where).read_text(encoding="utf-8"), encoding="utf-8")
    planted = tmp_path / "facets" / "analytics.py"
    planted.write_text("from repro.sparql import query as sparql_query\n"
                       + planted.read_text(encoding="utf-8"),
                       encoding="utf-8")
    assert _evaluator_imports(tmp_path) == ["facets/analytics.py:1 query"]


FACETS_SRC = SRC / "facets"

#: What turns a term into a key or a number: once per value, a cold
#: listing's largest cost before the dictionary memoized both.
PER_VALUE_TERM_WORK = {"sort_key", "to_python"}


def _listing_term_work(session_path=FACETS_SRC / "session.py",
                       graph_path=RDF_SRC / "graph.py"):
    """Where the listing's kernels — the session's scan,
    materialization and last-step count, the store's ``facet_counts``
    (flat and sharded) and the forward join of a path prefix — call
    ``sort_key()`` or ``to_python()`` instead of reading the
    dictionary's memos."""
    session, graph, sharding, model = (
        ast.parse(path.read_text(encoding="utf-8"))
        for path in (session_path, graph_path, RDF_SRC / "sharding.py",
                     FACETS_SRC / "model.py"))
    scopes = [_definition(session, "FacetedSession", name) for name in
              ("_scan", "_materialize", "_count_last_step")]
    scopes += [_definition(graph, "Graph", "facet_counts"),
               _definition(sharding, "ShardedGraph", "facet_counts"),
               _definition(model, "_joins_ids")]
    return _attribute_calls(scopes, PER_VALUE_TERM_WORK)


def test_listing_kernels_do_no_per_value_term_work(tmp_path):
    """Marker order comes from ``dictionary.sort_keys`` and numbers from
    ``dictionary.numbers``: no kernel of a listing derives either from
    a term again.  A per-value ``sort_key()`` planted in ``_scan`` or
    in ``_materialize`` is caught."""
    assert _listing_term_work() == []
    source = (FACETS_SRC / "session.py").read_text(encoding="utf-8")
    plants = {  # anchor (in _scan, in _materialize) -> the planted line
        "        sort_keys = graph.dictionary.sort_keys\n":
            "        [decode(s[0]).sort_key() for s in counters]\n",
        "        dictionary = self.graph.dictionary\n":
            "        [dictionary.decode(v).sort_key() for v in counter]\n"}
    for anchor, plant in plants.items():
        assert source.count(anchor) == 1
        planted = tmp_path / "session.py"
        planted.write_text(source.replace(anchor, anchor + plant),
                           encoding="utf-8")
        assert [hit.split(":")[0]
                for hit in _listing_term_work(planted)] == ["sort_key"]


def test_the_store_orders_markers_off_the_sort_key_memo(tmp_path):
    """The store hands out forward counters in marker order: the flat
    kernel's re-sort of a POS row and the sharded merge read
    ``dictionary.sort_keys``, and a ``sort_key()`` planted in the
    re-sort is caught."""
    for path, store in ((RDF_SRC / "graph.py", "Graph"),
                        (RDF_SRC / "sharding.py", "ShardedGraph")):
        kernel = _definition(ast.parse(path.read_text(encoding="utf-8")),
                             store, "facet_counts")
        assert any(getattr(node, "attr", None) == "sort_keys"
                   for node in ast.walk(kernel)), store
    source = (RDF_SRC / "graph.py").read_text(encoding="utf-8")
    anchor = "                    rows = self._pos[pi]\n"
    assert source.count(anchor) == 1
    planted = tmp_path / "graph.py"
    planted.write_text(source.replace(anchor, anchor + (
        "                    [self.decode_id(v).sort_key() for v in rows]\n")),
        encoding="utf-8")
    assert [hit.split(":")[0]
            for hit in _listing_term_work(graph_path=planted)] == ["sort_key"]


EVALUATOR = REPO / "src" / "repro" / "sparql" / "evaluator.py"

#: The Term-level reads of a store: each encodes its pattern and decodes
#: every match.
TERM_READS = {"triples", "subjects", "objects", "predicates", "all_subjects",
              "all_objects", "count"}


#: The names a store goes by in the evaluator.
STORES = ("graph", "store")


def _is_store(node):
    """``graph`` / ``store``, or a ``.graph`` attribute (``self.graph``)."""
    return (isinstance(node, ast.Name) and node.id in STORES
            or isinstance(node, ast.Attribute) and node.attr == "graph")


def _evaluator_leaves_id_space(path=EVALUATOR):
    """Where the SPARQL evaluator reads a store through the Term-level
    API — a call of one of ``TERM_READS`` on a store, or an ``in graph``
    / ``in store`` containment test — instead of ``triples_ids`` /
    ``count_ids``.  The same name on another receiver (``list.count``)
    is no store read."""
    module = ast.parse(path.read_text(encoding="utf-8"))
    found = [f"{node.func.attr}:{node.lineno}" for node in ast.walk(module)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in TERM_READS and _is_store(node.func.value)]
    found += [f"in:{node.lineno}" for node in ast.walk(module)
              if isinstance(node, ast.Compare)
              and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
              and any(_is_store(side) for side in node.comparators)]
    return found


#: Where the evaluator names a decode — the store's ``decode_id``, the
#: dictionary's, or the seam's own ``_decode``: only the seam,
#: ``_Compiler.term``, and the constructor that binds it.
DECODERS = ["_Compiler.__init__", "_Compiler.term"]

#: The names a decode goes through: the store's, the dictionary's, the seam's.
DECODING = {"decode_id", "decode", "decode_ids", "decode_all", "_decode"}

#: Each read through the seam (``ctx.term`` / ``self.term``), one entry
#: per read: a numeric read (once per id), the compiled closure reading a
#: variable, a group key or an aggregate's value, the aggregates that
#: need the term (SAMPLE, GROUP_CONCAT, MIN/MAX over non-numbers), and
#: the query's edge — the projected rows and the CONSTRUCT template.
SEAM_READS = ["_Compiler.number", "_Compiler.variable.read",
              "_eval_construct.resolve", "_reduce", "select_rows"]


def _evaluator_decoders(path=EVALUATOR):
    """Where the evaluator decodes: the functions (qualified names) that
    name a decoding attribute, and the functions that read through the
    seam — once per read, so a second read where one is allowed shows."""
    decoders, seam_reads = [], []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and scope:
                if child.attr in DECODING:
                    decoders.append(".".join(scope))
                elif (child.attr == "term"
                      and isinstance(child.value, ast.Name)
                      and child.value.id in ("ctx", "self")):
                    seam_reads.append(".".join(scope))
            walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), [])
    return sorted(set(decoders)), sorted(seam_reads)


def _planted(tmp_path, anchor, line):
    """A copy of the evaluator with ``line`` inserted after the first
    ``anchor`` line."""
    source = EVALUATOR.read_text(encoding="utf-8")
    assert anchor in source
    planted = tmp_path / "planted_evaluator.py"
    planted.write_text(source.replace(anchor, anchor + line, 1),
                       encoding="utf-8")
    return planted


def test_block_matcher_joins_in_ids(tmp_path):
    """The compiled operators — triple patterns, the join planner,
    property paths and EXISTS — read every store (flat, sharded or an
    extension view) through ``triples_ids``, ``objects_ids`` and
    ``count_ids``; so the view needs no Term-level reader, and defines
    none.  A binding stays an id until the seam or the query's edge
    decodes it: nothing in a join, a path walk, the group fold or a
    modifier decodes."""
    assert _evaluator_leaves_id_space() == []
    assert _evaluator_decoders() == (DECODERS, SEAM_READS)
    # A decode in a pattern's join or in the group fold is caught; so is
    # a second seam read in the closure reading a variable.
    in_join = _planted(
        tmp_path, "                    for row[o] in rows[row[s]] if shared "
                  "else objects(row[s], p):\n",
        "                        self.graph.decode_id(row[o])\n")
    assert _evaluator_decoders(in_join) == (
        sorted(DECODERS + ["_Compiler.triple.subject_row.push"]), SEAM_READS)
    in_fold = _planted(
        tmp_path, "                groups[keyof(row)].append(entry(row))\n",
        "                self.graph.decode_id(row[0])\n")
    assert _evaluator_decoders(in_fold) == (
        sorted(DECODERS + ["_Compiler.grouping.fold"]), SEAM_READS)
    in_variable = _planted(
        tmp_path, "            binding = row[i]\n", "            ctx.term(binding)\n")
    assert _evaluator_decoders(in_variable) == (
        DECODERS, sorted(SEAM_READS + ["_Compiler.variable.read"]))
    planted = tmp_path / "evaluator.py"
    planted.write_text(
        EVALUATOR.read_text(encoding="utf-8").replace(
            "        ops: List[Op] = []\n",
            "        ops: List[Op] = []\n"
            "        list(graph.triples(None, None, None))\n"
            "        assert (None, None, None) not in graph\n"
            "        first, *values = node.children\n"
            "        values.count(first)\n", 1).replace(
            "        if path.inverse != backward:\n",
            "        graph.count(None, path.predicate, None)\n"
            "        if path.inverse != backward:\n", 1),
        encoding="utf-8")
    assert sorted(hit.split(":")[0] for hit in
                  _evaluator_leaves_id_space(planted)) == ["count", "in",
                                                           "triples"]
    view = _definition(ast.parse((RDF_SRC / "overlay.py").read_text(
        encoding="utf-8")), "ExtensionView")
    assert [node.name for node in view.body
            if isinstance(node, ast.FunctionDef)
            and node.name in TERM_READS | {"__contains__"}] == []


def test_term_reads_through_the_compilers_store_are_caught(tmp_path):
    """``self.graph`` is a store receiver too; ``row.count`` is not."""
    planted = _planted(
        tmp_path, "        ops: List[Op] = []\n",
        "        set(self.graph.subjects(None, None))\n"
        "        [].count(None)\n")
    assert [hit.split(":")[0] for hit in
            _evaluator_leaves_id_space(planted)] == ["subjects"]


BENCHMARKS = REPO / "benchmarks"


def _orphan_artifacts(out_dir=BENCHMARKS / "out"):
    """Files under ``out_dir`` that no ``benchmarks/bench_*.py`` writes
    and EXPERIMENTS.md does not cite."""
    citing = "".join(path.read_text(encoding="utf-8") for path in
                     [REPO / "EXPERIMENTS.md",
                      *sorted(BENCHMARKS.glob("bench_*.py"))])
    return sorted(path.name for path in out_dir.iterdir()
                  if path.name not in citing)


def test_no_stale_bench_artifacts(tmp_path):
    """Every checked-in artifact is regenerated by a bench or cited as a
    frozen verdict: one whose bench is gone and that nothing cites is
    stale."""
    assert _orphan_artifacts() == []
    for name in ("ablation_dictionary.txt", "ablation_dictionary.json",
                 "scalability_shards.txt"):
        (tmp_path / name).write_text("planted\n")
    assert _orphan_artifacts(tmp_path) == ["ablation_dictionary.json"]


def test_lint_detects_planted_defects(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import ast\n"
        "import os\n"
        "from typing import Union\n"
        "def f(x=[]):\n"
        "    try:\n"
        "        return x, ast.Union\n"
        "    except:\n"
        "        pass\n"
    )
    result = _run("--lint", str(bad))
    assert result.returncode == 1
    assert "unused import 'os'" in result.stdout  # L001
    # ... and a same-named attribute elsewhere does not count as a use.
    assert "unused import 'Union'" in result.stdout
    assert "unused import 'ast'" not in result.stdout
    assert "L002" in result.stdout  # bare except
    assert "L003" in result.stdout  # mutable default


def test_imports_used_only_by_name_in_strings_still_count(tmp_path):
    """What the narrowed L001 must keep accepting: a forward reference
    in a string annotation, an ``__all__`` re-export, and anything in an
    ``__init__.py``."""
    ok = tmp_path / "ok.py"
    ok.write_text(
        "from typing import List, Optional\n"
        "from os import path, sep\n"
        "__all__ = ['path']\n"
        "def f(x: 'Optional[int]') -> 'List[int]':\n"
        "    return [x]\n"
    )
    (tmp_path / "__init__.py").write_text("from os import path\n")
    result = _run("--lint", str(tmp_path))
    assert result.stdout.count("L001") == 1, result.stdout
    assert "unused import 'sep'" in result.stdout


def test_typecheck_detects_planted_defects(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def partial(a: int, b):\n"
        "    return a\n"
        "def no_return(a: int):\n"
        "    return a\n"
    )
    result = _run("--typecheck", str(bad))
    assert result.returncode == 1
    assert "T002" in result.stdout
    assert "T003" in result.stdout


def test_typecheck_reports_syntax_errors(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    result = _run("--typecheck", str(bad))
    assert result.returncode == 1
    assert "T001" in result.stdout


def test_future_annotations_import_is_exempt(tmp_path):
    ok = tmp_path / "ok.py"
    ok.write_text("from __future__ import annotations\nVALUE = 1\n")
    result = _run("--lint", str(ok))
    assert result.returncode == 0, result.stdout


SRC = REPO / "src" / "repro"

#: The public defs and methods under ``src/repro`` that no file outside
#: ``tests/`` names, each kept on purpose.
TEST_ONLY_KEPT = {
    "SparqlFacetEngine.extension_of_temp":
        "Table 5.1's E = s.Ext query, the oracle of the temp-class view",
    "FacetedSession.property_hierarchy":
        "the paper's property facets under the sub-property reduction",
    "AnswerFrame.select_columns":
        "the paper's column selection on an answer",
    "FacetedAnalyticsSession.derive":
        "the paper's transformation button (group by a derived attribute)",
    "Intention.with_class":
        "the paper's class click on an intention",
    "fco_path_max_freq": "FCO9 of Table 4.1",
    "SelectResult.sorted_rows":
        "the exported result API's deterministic row order, for comparisons",
    "museum_graph": "the §3.2.3 cultural-domain graph, not a star schema",
}


def _public_defs(path):
    """``(qualified name, name)`` of each public top-level def, and of
    each public method of a top-level class, in ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            members = [("", node)]
        elif isinstance(node, ast.ClassDef):
            members = [(node.name + ".", item) for item in node.body
                       if isinstance(item, ast.FunctionDef)]
        else:
            continue
        for prefix, member in members:
            if not member.name.startswith("_"):
                yield prefix + member.name, member.name


def _named_in_code(path):
    """The names a module uses: names, attributes, imports and strings
    that are one identifier (``getattr(graph, "store_for")``).  A
    re-export — an import in an ``__init__.py``, an ``__all__`` entry —
    is no use."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exported = {id(item) for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for item in ast.walk(node.value)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            found.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            found.add(node.value)
    return found


def _named_in_docs(path):
    """The identifiers in a document's code spans and code blocks."""
    text = path.read_text(encoding="utf-8")
    blocks = re.findall(r"```.*?```", text, re.S)
    spans = re.findall(r"`[^`\n]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"\w+", " ".join(blocks + spans)))


def _test_only_defs(defined=()):
    """The public defs and methods of ``src/repro`` (and of ``defined``)
    that neither the code outside ``tests/`` — the package, benchmarks,
    examples, the perf harness, tools — nor README, DESIGN or ``docs/``
    names."""
    named = set()
    for folder in ("src", "benchmarks", "examples", "perf", "tools"):
        for path in sorted((REPO / folder).rglob("*.py")):
            named |= _named_in_code(path)
    for path in [REPO / "README.md", REPO / "DESIGN.md",
                 *sorted((REPO / "docs").rglob("*.md"))]:
        named |= _named_in_docs(path)
    return sorted(qualified
                  for path in [*sorted(SRC.rglob("*.py")), *defined]
                  for qualified, name in _public_defs(path)
                  if name not in named)


def test_no_public_name_only_tests_reach(tmp_path):
    """A public def that only tests name is surface nothing ships: it
    goes, or it is kept here with its reason."""
    assert _test_only_defs() == sorted(TEST_ONLY_KEPT)
    planted = tmp_path / "planted.py"
    planted.write_text("def planted_unused():\n    return 1\n\n\n"
                       "class Planted:\n    def unused(self):\n"
                       "        return 2\n", encoding="utf-8")
    assert _test_only_defs([planted]) == sorted(
        TEST_ONLY_KEPT.keys() | {"planted_unused", "Planted.unused"})
