#!/usr/bin/env python
"""The static checker behind ``make lint`` / ``make typecheck``.

Stdlib only, so the gates run (and fail meaningfully) in hermetic
environments where nothing can be pip-installed; tier-1 runs the same
two commands (``tests/test_static_gates.py``).  The checks are a
deliberately small subset of what ruff and mypy would report:

``--lint`` (codes ``L0xx``):

* ``L001`` unused module-level import: a name counts as used when it
  occurs as an AST name, in ``__all__`` or inside a string annotation
  (``__init__.py`` re-export files are exempt)
* ``L002`` bare ``except:`` clause
* ``L003`` mutable default argument (list/dict/set literal or call)

``--typecheck`` (codes ``T0xx``):

* ``T001`` file does not compile
* ``T002`` partially annotated signature (some parameters annotated,
  some not — all-or-nothing keeps signatures honest)
* ``T003`` parameters annotated but the return type missing

Exit status is the number of offending files (capped at 1), so both
modes work as Make gates.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

Finding = Tuple[Path, int, int, str, str]


def iter_python_files(paths: List[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


def parse(path: Path) -> Tuple[ast.Module, str]:
    source = path.read_text(encoding="utf-8")
    return ast.parse(source, filename=str(path)), source


# ---------------------------------------------------------------------------
# Lint checks
# ---------------------------------------------------------------------------
def _imported_names(node: ast.stmt) -> List[Tuple[str, int, int]]:
    """(bound name, line, col) pairs introduced by an import statement."""
    out: List[Tuple[str, int, int]] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            out.append((name, node.lineno, node.col_offset))
    elif isinstance(node, ast.ImportFrom):
        if node.module == "__future__":
            return out
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name
            out.append((name, node.lineno, node.col_offset))
    return out


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # ``pkg.mod.attr`` marks the root name used.
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
    return used


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(
                node.value, (ast.List, ast.Tuple)
            ):
                return {
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                }
    return set()


def _string_annotations(tree: ast.Module) -> str:
    """The text of every string literal inside an annotation
    (``"Graph"``, ``Optional["Node"]``): forward references name their
    imports without an ``ast.Name``."""
    texts: List[str] = []
    for node in ast.walk(tree):
        for slot in ("annotation", "returns"):
            annotation = getattr(node, slot, None)
            if isinstance(annotation, ast.AST):
                texts.extend(
                    sub.value for sub in ast.walk(annotation)
                    if isinstance(sub, ast.Constant)
                    and isinstance(sub.value, str))
    return "\n".join(texts)


def lint_file(path: Path) -> List[Finding]:
    try:
        tree, _ = parse(path)
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, exc.offset or 0, "L000",
                 f"syntax error: {exc.msg}")]
    findings: List[Finding] = []

    # L001 — unused module-level imports.
    if path.name != "__init__.py":
        used = _used_names(tree) | _exported_names(tree)
        quoted = _string_annotations(tree)
        for node in tree.body:
            for name, line, col in _imported_names(node):
                if name in used or re.search(rf"\b{re.escape(name)}\b", quoted):
                    continue
                findings.append(
                    (path, line, col, "L001", f"unused import {name!r}")
                )

    for node in ast.walk(tree):
        # L002 — bare except.
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(
                (path, node.lineno, node.col_offset, "L002",
                 "bare 'except:' — name the exception types")
            )
        # L003 — mutable default arguments.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(
                    default, (ast.List, ast.Dict, ast.Set)
                ) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")
                )
                if mutable:
                    findings.append(
                        (path, default.lineno, default.col_offset, "L003",
                         f"mutable default argument in {node.name}()")
                    )
    return findings


# ---------------------------------------------------------------------------
# Typecheck checks
# ---------------------------------------------------------------------------
def typecheck_file(path: Path) -> List[Finding]:
    try:
        tree, source = parse(path)
        compile(source, str(path), "exec")
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, exc.offset or 0, "T001",
                 f"does not compile: {exc.msg}")]
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        # self/cls never need annotations.
        if params and params[0].arg in ("self", "cls"):
            params = params[1:]
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                params = params + [extra]
        annotated = sum(1 for p in params if p.annotation is not None)
        if 0 < annotated < len(params):
            missing = ", ".join(
                p.arg for p in params if p.annotation is None
            )
            findings.append(
                (path, node.lineno, node.col_offset, "T002",
                 f"{node.name}() is partially annotated "
                 f"(missing: {missing})")
            )
        if (
            params
            and annotated == len(params)
            and node.returns is None
            and node.name != "__init__"
        ):
            findings.append(
                (path, node.lineno, node.col_offset, "T003",
                 f"{node.name}() annotates its parameters but not its "
                 "return type")
            )
    return findings


# ---------------------------------------------------------------------------
def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--lint", action="store_true",
                      help="run the L0xx lint checks")
    mode.add_argument("--typecheck", action="store_true",
                      help="run the T0xx annotation checks")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default: src/repro)")
    args = parser.parse_args(argv)

    check = lint_file if args.lint else typecheck_file
    findings: List[Finding] = []
    files = 0
    for path in iter_python_files(args.paths or ["src/repro"]):
        files += 1
        findings.extend(check(path))
    for path, line, col, code, message in findings:
        print(f"{path}:{line}:{col}: {code} {message}")
    label = "lint" if args.lint else "typecheck"
    print(f"{label}: {files} files checked, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
