"""The repo-wide static gates (`make lint` / `make typecheck`) ride tier-1:
the checker must pass over the shipped sources and must still catch the
defect classes it claims to."""

import ast
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
                  "examples")
    assert result.returncode == 0, result.stdout + result.stderr


def test_typecheck_gate_passes_on_target_packages():
    result = _run(
        "--typecheck",
        "src/repro/rdf", "src/repro/hifun", "src/repro/analysis",
        "src/repro/olap", "src/repro/facets",
    )
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
