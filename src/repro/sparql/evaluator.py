"""Evaluation of SPARQL ASTs over a :class:`repro.rdf.Graph`.

:func:`evaluate` compiles the parsed query once per call against its
store, then runs it.  Each variable gets a slot, and a solution is a
*slot row*: one *binding* per slot (``None`` = unbound) — the store's
id for the term (a view's virtual ids included), or a computed term the
store never saw (BIND, VALUES, an expression's result), encoded before
it is bound, so equal bindings are equal terms.

The query is a *push pipeline* over the SPARQL algebra: each operator
is a closure that writes its slots, calls the next one and resets its
slots, so a row travels depth-first with no per-solution dict or copy.
A basic block is planned once (:func:`plan_block`) and reads the store
through ``triples_ids`` / ``objects_ids`` / ``count_ids`` alone, so a
flat store, a sharded one and an extension view serve it alike.
OPTIONAL is a left-outer join; MINUS, VALUES, a sub-SELECT, a nested
group and a UNION branch hash their right side on the slots a row
shares (a nested group or branch is evaluated on its own first, as in
SPARQL 1.1's algebra); FILTER applies at the end of its group, and
EXISTS stops at its first solution.  An error inside
FILTER/HAVING makes the condition false, in a projection, BIND or group
key it leaves the variable unbound.  GROUP BY folds in one sink: a key
maps to its group's argument bindings in arrival order, and SUM, AVG,
MIN and MAX read an id's number once for the life of its dictionary.
Two shapes skip the pipeline.  Table 5.2's grouped COUNT over a class
and at most one step is read off the POS rows, one ``subjects_ids``
row and one ``Graph.facet_counts`` call (:meth:`_Compiler.counted`).
Any other aggregate over Table 5.1's star (a class root, then steps
under constant predicates) is expanded a step at a time over the whole
frontier: one ``triples_ids`` read for the root's column, one
``objects_column`` read of the distinct subjects a step, and the group
dict filled from the columns in the pipeline's solution order
(:meth:`_Compiler.star`); an extension view keeps a column that holds
one row per root member, so a state's presses read it once.  A GROUP
BY key over one variable is mapped over its column's distinct
bindings, and a group's aggregates are bound once.

Terms are decoded through one seam, :meth:`_Compiler.term`: where an
expression reads a variable, where a number or an aggregate needs the
term, and at the query's edge (:func:`select_rows`: the projected
rows; the CONSTRUCT template).
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import fields, is_dataclass
from functools import partial
from itertools import accumulate, chain, count, repeat
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.rdf.graph import EMPTY_IDS, Graph, _column
from repro.rdf.namespace import RDF
from repro.rdf.terms import BNode, IRI, Literal, Term, native_number
from repro.sparql import ast
from repro.sparql.errors import ExpressionError, SparqlEvalError
from repro.sparql.functions import (
    BUILTINS,
    aggregate as eval_aggregate,
    arithmetic,
    compare,
    comparison,
    effective_boolean_value,
    make_boolean,
    reduce_numbers,
    wrap_number,
    xsd_cast,
)
from repro.sparql.lexer import tokenize
from repro.sparql.parser import parse_query
from repro.sparql.results import Row, SelectResult

#: A variable's value: a dictionary id, or a computed term (see above);
#: a row holds one per slot, and an operator makes its entry point (a
#: push) from the next one's; an expression compiles to a row → term.
Binding = Union[int, Term]
SlotRow = List[Optional[Binding]]
Push = Callable[[SlotRow], None]
Op = Callable[[Push], Push]
Compiled = Callable[[SlotRow], Term]
#: What :func:`evaluate` answers: SELECT rows, an ASK verdict or a
#: CONSTRUCTed graph.
QueryResult = Union[SelectResult, bool, Graph]

#: The name prefix of a slot no query text can name: an aggregate's
#: value or a computed GROUP BY key, which the group's expressions read.
_HIDDEN = "#"
_RDF_TYPE = RDF.type
_XSD = "http://www.w3.org/2001/XMLSchema#"
_ZERO = Literal("0", _XSD + "integer")
_COMPARISONS = frozenset({"=", "!=", "<", ">", "<=", ">="})
_NUMERIC_AGGREGATES = frozenset({"SUM", "AVG", "MIN", "MAX"})


class _Found(Exception):
    """Raised by the sink of an EXISTS or ASK body at its first solution."""


def _found(row: SlotRow) -> None:
    raise _Found


def _any(body: Push, row: SlotRow) -> bool:
    """Does a body ending in :func:`_found` find a solution from ``row``?"""
    try:
        body(row)
    except _Found:
        return True
    return False


def _chain(ops: List[Op]) -> Op:
    """Operators run one after the other."""
    def op(nxt: Push) -> Push:
        for stage in reversed(ops):
            nxt = stage(nxt)
        return nxt
    return op


def _passing(tests: List[Callable[[SlotRow], bool]]) -> Op:
    """The operator passing on a row that every test accepts."""
    def op(nxt: Push) -> Push:
        def push(row):
            for test in tests:
                if not test(row):
                    return
            nxt(row)
        return push
    return op


def _found_in(node: object, kind: type, into: dict) -> dict:
    """Add the nodes of ``kind`` under ``node`` to ``into`` (an ordered
    set), not looking inside an aggregate."""
    if isinstance(node, kind):
        into.setdefault(node)
    elif isinstance(node, (tuple, list)):
        for item in node:
            _found_in(item, kind, into)
    elif is_dataclass(node) and not isinstance(node, ast.Aggregate):
        for field in fields(node):
            _found_in(getattr(node, field.name), kind, into)
    return into


def _names(node: object) -> set:
    """The variables ``node`` reads outside any aggregate (in an EXISTS
    pattern too)."""
    return {var.name for var in _found_in(node, ast.Var, {})}


def _raising(message: str) -> Compiled:
    def fails(row):
        raise ExpressionError(message)
    return fails


def _ebv(compiled: Compiled) -> Callable[[SlotRow], Optional[bool]]:
    """The effective boolean value of ``compiled``, ``None`` on an error."""
    def test(row):
        try:
            return effective_boolean_value(compiled(row))
        except ExpressionError:
            return None
    return test


class _Rows(dict):
    """The objects of each subject under one predicate, read once."""

    def __missing__(self, subject: int) -> object:
        found = self[subject] = self.read(subject)
        return found


class _Compiler:
    """One :func:`evaluate` call: the store, the slot of each variable,
    the variables that may hold a ``computed`` term (a block drops such
    a row: the store has no id for it) and the seam between bindings and
    terms.  The number memo is the dictionary's: an id never changes its
    term; a view's negative virtual ids and computed terms stay out."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.slots: Dict[str, int] = {}
        self.computed: set = set()
        self.shared: set = set()  # variables bound to an object's id
        self.order: List[ast.TriplePattern] = []  # the last block's plan
        self.shape: Optional[List[ast.TriplePattern]] = None  # the star
        self._encode = graph.encode_term
        self._decode = graph.decode_id
        self.numbers: Dict[int, object] = graph.dictionary.numbers

    def slot(self, name: str) -> int:
        return self.slots.setdefault(name, len(self.slots))

    def row(self) -> SlotRow:
        return [None] * len(self.slots)

    def bind(self, term: Term) -> Binding:
        """A computed term as a binding: the store's id when it knows
        the term, else the term itself."""
        ident = self._encode(term)
        return term if ident is None else ident

    def term(self, binding: Binding) -> Term:
        """The decode seam: the term a binding stands for."""
        return self._decode(binding) if type(binding) is int else binding

    def number(self, binding: Binding) -> object:
        """The native number of a binding (``None``: no numeric literal)."""
        try:
            return self.numbers[binding]
        except KeyError:  # a computed term or a view's virtual id
            return native_number(self.term(binding))

    # -- group patterns: ``bound`` (every row binds) and ``maybe`` (some
    # rows bind) are the variables before an operator, updated in place.
    def group(self, node: ast.GroupPattern, bound: set, maybe: set) -> Op:
        ops: List[Op] = []
        filters: List[ast.Expression] = []
        block: List[ast.TriplePattern] = []
        for child in node.children + (None,):
            if isinstance(child, ast.TriplePattern):
                block.append(child)
                continue
            if block:
                ops.append(self.block(block, bound, maybe))
                block = []
            if isinstance(child, ast.Filter):
                filters.append(child.condition)
            elif child is not None:
                ops.append(self.pattern(child, bound, maybe))
        if filters:
            ops.append(_passing([self.condition(c, (bound, maybe, None))
                                 for c in filters]))
        return _chain(ops)

    def nested(self, node: ast.GroupPattern, bound: set, maybe: set) -> Op:
        """A group inside a group (or a UNION branch), evaluated on its
        own, then joined: what its FILTERs, OPTIONALs, MINUSes and BINDs
        keep must not depend on the outer row."""
        inner = self.group(node, set(), set())
        self.introduce(ast.scope_of(node), bound, maybe)
        return self.join(lambda: self.entries(inner))

    def pattern(self, node: ast.Pattern, bound: set, maybe: set) -> Op:
        if isinstance(node, ast.GroupPattern):
            return self.nested(node, bound, maybe)
        if isinstance(node, ast.PathPattern):
            return self.path(node, bound, maybe)
        if isinstance(node, ast.Optional_):
            return self.optional(node, bound, maybe)
        if isinstance(node, ast.Union):
            return self.union(node, bound, maybe)
        if isinstance(node, ast.Minus):
            inner = self.group(node.pattern, set(), set())
            return self.join(lambda: self.entries(inner), minus=True)
        if isinstance(node, ast.Bind):
            return self.extend(node, bound, maybe)
        if isinstance(node, ast.InlineValues):
            table = []
            for values in node.rows:
                entry: Dict[int, Binding] = {}
                for var, term in zip(node.variables, values):
                    binding = None if term is None else self.bind(term)
                    if binding is not None and entry.setdefault(
                            self.slot(var.name), binding) != binding:
                        break  # one variable given two values
                else:
                    table.append(tuple(entry.items()))
            self.introduce({v.name for v in node.variables}, bound, maybe)
            return self.join(lambda: table)
        if isinstance(node, ast.SubSelect):
            run = _Compiler(self.graph).select(node.query)

            def answer() -> List[tuple]:
                names, rows = run()
                slots = [self.slots[name] for name in names]
                return [tuple((i, v) for i, v in zip(slots, values)
                              if v is not None) for values in rows]
            self.introduce(ast.scope_of(node), bound, maybe)
            return self.join(answer)
        raise SparqlEvalError(f"unknown pattern node {type(node).__name__}")

    def introduce(self, names: set, bound: set, maybe: set) -> None:
        """Variables an operator may bind to computed terms."""
        for name in names:
            self.slot(name)
        self.computed |= names
        maybe |= names - bound

    def block(self, patterns: List[ast.TriplePattern], bound: set,
              maybe: set) -> Op:
        """One basic block, joined in ids and planned once; a constant
        the store never saw matches nothing."""
        ids: Dict[Term, Optional[int]] = {}
        names = set()
        self.order = plan_block(patterns, bound, self.graph)
        for tp in patterns:
            for x in (tp.s, tp.p, tp.o):
                if isinstance(x, ast.Var):
                    names.add(x.name)
                elif ids.setdefault(x, self.graph.encode_term(x)) is None:
                    return lambda nxt: lambda row: None
        ops: List[Op] = []
        guard = [self.slot(n) for n in sorted(names & self.computed
                                              & (bound | maybe))]
        if guard:  # a computed term has no id to match
            ops.append(_passing([lambda row, i=i: row[i] is None or type(
                row[i]) is int for i in guard]))
        planned = set(bound)
        for tp in self.order:
            ops.append(self.triple(tp, ids, planned, maybe))
            planned |= _names(tp)
        bound |= names
        maybe -= names
        return _chain(ops)

    def triple(self, tp: ast.TriplePattern, ids: Dict[Term, Optional[int]],
               bound: set, maybe: set) -> Op:
        """One triple pattern: a new object of a bound subject reads the
        subject's row (``objects_ids``), any other is a ``triples_ids``
        probe per row."""
        slots = (tp.s, tp.p, tp.o)
        template = [None if isinstance(x, ast.Var) else ids[x] for x in slots]
        # (position, slot) read off the row, (position, slot) it binds,
        # and two positions of one new variable
        reads, fills, same = [], [], []
        for k, x in enumerate(slots):
            if isinstance(x, ast.Var):
                i = self.slot(x.name)
                if x.name in bound or x.name in maybe:
                    reads.append((k, i))
                first = slots.index(x)
                if x.name in bound:
                    continue
                if first < k:
                    same.append((first, k))
                else:
                    fills.append((k, i))
        store = self.graph.store_for(*template[1:])
        if [k for k, _ in reads] == [0] and [k for k, _ in fills] == [2] \
                and template[1] is not None:
            objects, (_, s), (_, o), p = (store.objects_ids, reads[0],
                                          fills[0], template[1])
            shared = tp.s.name in self.shared  # many rows' subject

            def subject_row(nxt: Push) -> Push:
                rows = _Rows()
                rows.read = lambda subject: objects(subject, p)

                def push(row):
                    for row[o] in rows[row[s]] if shared else objects(row[s], p):
                        nxt(row)
                    row[o] = None
                return push
            self.shared.add(tp.o.name)
            return subject_row
        triples = store.triples_ids
        lone = len(fills) == 1 and not same  # one new variable: a column
        (k1, i1), = fills if lone else [(0, 0)]
        column = itemgetter(k1)

        def probe_rows(nxt: Push) -> Push:
            def push(row):
                probe = template.copy()
                for k, i in reads:
                    probe[k] = row[i]
                saved = [row[i] for _, i in fills]
                if lone:
                    for row[i1] in map(column, triples(*probe)):
                        nxt(row)
                else:
                    for match in triples(*probe):
                        if same and any(match[j] != match[k] for j, k in same):
                            continue
                        for k, i in fills:
                            row[i] = match[k]
                        nxt(row)
                for (_, i), old in zip(fills, saved):
                    row[i] = old
            return push
        return probe_rows

    def path(self, node: ast.PathPattern, bound: set, maybe: set) -> Op:
        graph, path = self.graph, node.path
        (si, sc), (oi, oc) = [
            (self.slot(x.name), None) if isinstance(x, ast.Var)
            else (None, self.bind(x)) for x in (node.s, node.o)]
        self.introduce(_names((node.s, node.o)), bound, maybe)
        bound |= _names((node.s, node.o))
        maybe -= bound
        nullable = _nullable(path)
        nodes: List[set] = []  # every subject and object, read once

        def walk(nxt: Push) -> Push:
            def push(row):
                s = sc if si is None else row[si]
                o = oc if oi is None else row[oi]
                if s is not None or o is not None:  # walk from a bound end
                    start, end, i = (s, o, oi) if s is not None else (o, s, si)
                    # (a computed term has no edge: only the zero-length
                    # walk reaches it, from itself)
                    targets = _path_targets(graph, (start,), path, s is None) \
                        if type(start) is int else {start} if nullable else ()
                    if end is None:
                        for row[i] in targets:
                            nxt(row)
                        row[i] = None
                    elif end in targets:
                        nxt(row)
                    return
                # Both ends unbound: every subject and object is a start
                # (the zero-length path semantics), read off one scan.
                if not nodes:
                    nodes.append({i for t in graph.triples_ids()
                                  for i in (t[0], t[2])})
                for start in nodes[0]:
                    for target in _path_targets(graph, (start,), path):
                        if si != oi:
                            row[si], row[oi] = start, target
                            nxt(row)
                        elif target == start:
                            row[si] = start
                            nxt(row)
                row[si] = row[oi] = None
            return push
        return walk

    def optional(self, node: ast.Optional_, bound: set, maybe: set) -> Op:
        inner_bound, inner_maybe = set(bound), set(maybe)
        inner = self.group(node.pattern, inner_bound, inner_maybe)
        maybe |= (inner_bound | inner_maybe) - bound

        def left_join(nxt: Push) -> Push:
            emitted: list = []
            body = inner(lambda row: (emitted.append(row), nxt(row)))

            def push(row):
                emitted.clear()
                body(row)
                if not emitted:
                    nxt(row)
            return push
        return left_join

    def union(self, node: ast.Union, bound: set, maybe: set) -> Op:
        (lb, lm), (rb, rm) = (set(bound), set(maybe)), (set(bound), set(maybe))
        branches = [self.nested(node.left, lb, lm),
                    self.nested(node.right, rb, rm)]
        maybe |= lb | lm | rb | rm
        bound |= lb & rb
        maybe -= bound

        def concat(nxt: Push) -> Push:
            pushes = [branch(nxt) for branch in branches]

            def push(row):
                for branch in pushes:
                    branch(row)
            return push
        return concat

    def rows_of(self, op: Op) -> List[SlotRow]:
        """Every solution of ``op`` from the empty row, copied."""
        out: List[SlotRow] = []
        op(lambda row: out.append(row.copy()))(self.row())
        return out

    def entries(self, op: Op) -> List[tuple]:
        """:meth:`rows_of` as :meth:`join` entries: the bound slots."""
        return [tuple((i, v) for i, v in enumerate(row) if v is not None)
                for row in self.rows_of(op)]

    def join(self, entries: Callable[[], List[tuple]],
             minus: bool = False) -> Op:
        """Each of ``entries`` (tuples of ``(slot, binding)``, read at the
        first row, hashed on the slots a row shares) compatible with a row
        written into it in turn; for MINUS, the row if none sharing one is."""
        groups: Dict[tuple, list] = {}
        indexes: Dict[tuple, Dict[tuple, list]] = {}
        unread = [True]

        def compatible(row):
            if unread:  # the first row reads the entries
                unread.clear()
                for n, entry in enumerate(entries()):
                    groups.setdefault(tuple(i for i, _ in entry),
                                      []).append((n, entry))
            found: list = []
            for signature, members in groups.items():
                shared = tuple(i for i in signature if row[i] is not None)
                if not shared:
                    found += () if minus else members
                    continue
                index = indexes.get((signature, shared))
                if index is None:
                    index = indexes[signature, shared] = {}
                    for member in members:
                        values = dict(member[1])
                        index.setdefault(tuple(values[i] for i in shared),
                                         []).append(member)
                found += index.get(tuple(row[i] for i in shared), ())
            if len(groups) > 1:
                found.sort(key=itemgetter(0))
            return found

        def joined(nxt: Push) -> Push:
            def push(row):
                found = compatible(row)
                if minus:
                    if not found:
                        nxt(row)
                    return
                for _, entry in found:
                    saved = [row[i] for i, _ in entry]
                    for i, v in entry:
                        row[i] = v
                    nxt(row)
                    for (i, _), old in zip(entry, saved):
                        row[i] = old
            return push
        return joined

    def extend(self, node: ast.Bind, bound: set, maybe: set) -> Op:
        value, name = self.value(node.expr, (bound, maybe, None)), node.var.name
        i = self.slot(name)
        self.introduce({name}, bound, maybe)

        def bind(nxt: Push) -> Push:
            def push(row):
                if row[i] is not None:
                    raise SparqlEvalError(f"BIND would rebind ?{name}")
                row[i] = value(row)  # an error leaves it unbound
                nxt(row)
                row[i] = None
            return push
        return bind

    # -- expressions: ``at`` is ``(bound, maybe, group)``, the variables at
    # the expression (an EXISTS plans with them) and, in an aggregation,
    # the hidden slot of each aggregate and computed key.
    def variable(self, i: int, name: str) -> Compiled:
        ctx = self

        def read(row):
            binding = row[i]
            if binding is None:
                raise ExpressionError(f"unbound variable ?{name}")
            return ctx.term(binding)
        return read

    def expression(self, expr: ast.Expression, at: tuple) -> Compiled:
        """``expr`` as a closure yielding a term (raising
        ExpressionError on failure)."""
        if at[2] is not None and not isinstance(expr, ast.Var) and expr in at[2]:
            return self.variable(at[2][expr], "group value")
        if isinstance(expr, ast.Var):
            return self.variable(self.slot(expr.name), expr.name)
        if isinstance(expr, ast.TermExpr):
            return lambda row, term=expr.term: term
        if isinstance(expr, ast.Aggregate):
            return _raising("aggregate used outside aggregation context")
        if isinstance(expr, ast.Unary):
            operand = self.expression(expr.operand, at)
            if expr.op == "!":
                return lambda row: make_boolean(
                    not effective_boolean_value(operand(row)))
            if expr.op == "-":
                return lambda row: arithmetic("-", _ZERO, operand(row))
            return operand
        if isinstance(expr, ast.Binary):
            return self.binary(expr, at)
        if isinstance(expr, ast.FunctionCall):
            return self.function(expr, at)
        if isinstance(expr, ast.InExpr):
            needle = self.expression(expr.expr, at)
            options = [self.expression(o, at) for o in expr.options]
            negated = expr.negated

            def member(row):
                value = needle(row)
                for option in options:
                    try:
                        if compare("=", value, option(row)):
                            return make_boolean(not negated)
                    except ExpressionError:
                        continue
                return make_boolean(negated)
            return member
        if isinstance(expr, ast.ExistsExpr):
            body = self.group(expr.pattern, set(at[0]), set(at[1]))(_found)
            negated = expr.negated  # (a copy: an early exit leaves slots)
            return lambda row: make_boolean(_any(body, row.copy()) != negated)
        raise SparqlEvalError(f"unknown expression node {type(expr).__name__}")

    def binary(self, expr: ast.Binary, at: tuple) -> Compiled:
        op = expr.op
        if op in ("&&", "||"):
            # SPARQL three-valued logic: an error on one side is
            # tolerated if the other side already decides the outcome.
            left = _ebv(self.expression(expr.left, at))
            right = _ebv(self.expression(expr.right, at))
            decisive = op == "||"

            def logic(row):
                a = left(row)
                b = decisive if a is decisive else right(row)
                if b is not decisive and (a is None or b is None):
                    raise ExpressionError(f"error in {op} operand")
                return make_boolean(decisive if b is decisive else not decisive)
            return logic
        left = self.expression(expr.left, at)
        if op in _COMPARISONS and at[2] is None \
                and isinstance(expr.right, ast.TermExpr):
            test = comparison(op, expr.right.term)  # the bound parsed once
            return lambda row: make_boolean(test(left(row)))
        right = self.expression(expr.right, at)
        if op in _COMPARISONS:
            return lambda row: make_boolean(compare(op, left(row), right(row)))
        if op in ("+", "-", "*", "/"):
            return lambda row: arithmetic(op, left(row), right(row))
        raise SparqlEvalError(f"unknown operator {op!r}")

    def function(self, expr: ast.FunctionCall, at: tuple) -> Compiled:
        name = expr.name
        if name == "BOUND":
            if len(expr.args) != 1 or not isinstance(expr.args[0], ast.Var):
                return _raising("BOUND requires a single variable")
            i = self.slot(expr.args[0].name)
            return lambda row: make_boolean(row[i] is not None)
        args = [self.expression(arg, at) for arg in expr.args]
        if name == "IF":
            condition, then, otherwise = args[0], args[1], args[2]
            return lambda row: (then if effective_boolean_value(
                condition(row)) else otherwise)(row)
        if name == "COALESCE":
            def coalesce(row):
                for arg in args:
                    try:
                        return arg(row)
                    except ExpressionError:
                        continue
                raise ExpressionError("all COALESCE branches failed")
            return coalesce
        fn = BUILTINS.get(name)
        if fn is None:
            def fn(values: List[Term]) -> Term:
                if not name.startswith(_XSD):
                    raise ExpressionError(f"unknown function {name!r}")
                if len(values) != 1:
                    raise ExpressionError("casts take exactly one argument")
                return xsd_cast(name, values[0])
        return lambda row: fn([arg(row) for arg in args])

    def condition(self, expr: ast.Expression,
                  at: tuple) -> Callable[[SlotRow], bool]:
        """FILTER/HAVING: the effective boolean value, false on an error."""
        test = _ebv(self.expression(expr, at))
        return lambda row: test(row) is True

    def value(self, expr: ast.Expression,
              at: tuple) -> Callable[[SlotRow], Optional[Binding]]:
        """``expr``'s binding on a row, ``None`` on an error — read
        straight off the row when ``expr`` is a variable or a group's
        slot, and once per distinct binding when it reads one variable."""
        if isinstance(expr, ast.Var):
            return itemgetter(self.slot(expr.name))
        if at[2] is not None and expr in at[2]:
            return itemgetter(at[2][expr])
        compiled, bind, names = self.expression(expr, at), self.bind, _names(expr)

        def value(row):
            try:
                return bind(compiled(row))
            except ExpressionError:
                return None
        if len(names) != 1 or at[2] is not None:  # a group reads its slots
            return value
        i, memo = self.slot(names.pop()), {}

        def once(row):
            binding = row[i]
            if binding not in memo:
                memo[binding] = value(row)
            return memo[binding]
        return once

    # -- SELECT: the group-fold sink, projection and modifiers
    def grouping(self, query: ast.SelectQuery, where: tuple) -> Tuple[
            Push, Callable[[List[list]], None],
            Callable[[], List[SlotRow]], dict]:
        """The group-fold sink and its twin over columns; the finish
        making each group its row (keys, aliases, lenient extras,
        aggregates); and the hidden slot of each aggregate and computed
        key, for the group to read."""
        group: Dict[ast.Expression, int] = {}
        # Per GROUP BY condition: its binding on a row, the slot of the
        # one variable it reads (if so), and the slots it binds.
        keys, sources, targets = [], [], []
        aliases = query.group_aliases or (None,) * len(query.group_by)
        for n, (expr, alias) in enumerate(zip(query.group_by, aliases)):
            keys.append(self.value(expr, where))
            names = _names(expr)
            sources.append(self.slot(*names) if len(names) == 1 else None)
            slots = [self.slot(expr.name) if isinstance(expr, ast.Var) else
                     group.setdefault(expr, self.slot(f"{_HIDDEN}k{n}"))]
            targets.append(slots + ([self.slot(alias.name)] if alias else []))
        read = [p.expr for p in query.projections if p.expr is not None]
        read += list(query.having) + [c.expr for c in query.order_by]
        aggregates = list(_found_in(read, ast.Aggregate, {}))
        arguments: Dict[ast.Expression, int] = {}
        plan = []  # (hidden slot, aggregate, its argument's entry or None)
        for n, agg in enumerate(aggregates):
            group[agg] = self.slot(f"{_HIDDEN}a{n}")
            plan.append((group[agg], agg, None if agg.expr is None else
                         arguments.setdefault(agg.expr, len(arguments))))
        # The lenient extras: a variable the group's expressions read,
        # bound alike in every member, is bound in the group's row.
        extras: List[int] = []
        if query.group_by:
            taken = {i for slots in targets for i in slots}
            wanted = _names((read, [p.var for p in query.projections
                                    if p.expr is None]))
            extras = [i for n, i in self.slots.items()
                      if i not in taken and not n.startswith(_HIDDEN)
                      and n in wanted]
        # A group buffers one entry per row: the aggregates' arguments,
        # the extras and, for COUNT(DISTINCT *), the whole row.
        columns = [self.slot(e.name) if isinstance(e, ast.Var)
                   else self.value(e, where) for e in arguments] + extras
        if any(a.expr is None and a.distinct for a in aggregates):
            columns += range(len(self.slots))
        columns = columns or [0]  # COUNT(*) counts the entries
        getters = [itemgetter(c) if type(c) is int else c for c in columns]
        entry = (itemgetter(*columns) if all(type(c) is int for c in columns)
                 else getters[0] if len(columns) == 1
                 else lambda row: tuple([g(row) for g in getters]))
        plain = [isinstance(e, ast.Var) for e in query.group_by]
        scalar = plain == [True]
        keyof: Callable[[SlotRow], object] = (
            itemgetter(*sources) if keys and all(plain)
            else lambda row: tuple([k(row) for k in keys]))
        groups: Dict[object, list] = defaultdict(list)
        buffer = groups[()] if not keys else []  # one group, also over no row

        def fold(row):
            if keys:
                groups[keyof(row)].append(entry(row))
            else:
                buffer.append(entry(row))

        def column(n: int, found: List[list]) -> list:
            """Key ``n``'s column, mapped from its variable's."""
            i = sources[n]
            if plain[n]:
                return found[i]
            row, table = self.row(), {}
            for row[i] in set(found[i]):
                table[row[i]] = keys[n](row)
            return list(map(table.__getitem__, found[i]))

        def fill(found: List[list]) -> None:
            """:func:`fold` over solutions given as the columns of the
            first slots, in arrival order: zipped when every entry and
            every key's source is one of them, else a row at a time."""
            if {*sources, *columns} <= set(range(len(found))):
                entries = [found[c] for c in columns]
                entries = entries[0] if len(entries) == 1 else zip(*entries)
                if not keys:
                    return buffer.extend(entries)
                keyed = [column(n, found) for n in range(len(keys))]
                for key, item in zip(keyed[0] if scalar else zip(*keyed),
                                     entries):
                    groups[key].append(item)
                return None
            row = self.row()
            for row[:len(found)] in zip(*found):
                fold(row)
            return None

        def finish() -> List[SlotRow]:
            out = []
            for key, rows in groups.items():
                rep = self.row()
                for slots, value in zip(targets, (key,) if scalar else key):
                    for i in slots:
                        rep[i] = value
                values = (list(zip(*rows)) or [()] * len(columns)
                          if len(columns) > 1 else [rows])
                for i, n in zip(extras, range(len(arguments), len(columns))):
                    first = values[n][0] if rows else None
                    if set(values[n]) == {first}:
                        rep[i] = first
                for i, agg, n in plan:  # each result bound once
                    result = (_reduce(agg, values[n], self) if n is not None
                              else wrap_number(len(set(rows) if agg.distinct
                                                   else rows)))  # COUNT(*)
                    rep[i] = None if result is None else self.bind(result)
                out.append(rep)
            return out
        return fold, fill, finish, group

    def counted(self, query: ast.SelectQuery, group: dict
                ) -> Optional[Callable[[], List[SlotRow]]]:
        """The group rows of Table 5.2's grouped count, read off the
        POS rows — or ``None`` when ``query`` is not that shape: a star
        (:func:`_star_of`) of at most one step ``?x p ?v``, grouped by
        nothing or ``?v``, every aggregate ``COUNT(*)``, ``COUNT(?x)``
        or ``COUNT(DISTINCT ?x)``, and ``?x`` read nowhere else.  A
        solution is one (member, value) pair, so one ``facet_counts``
        call on the store holding ``p`` counts every group: a value's
        count is its group's, their sum ``COUNT(*)`` and the members
        having ``p`` ``COUNT(DISTINCT ?x)``.  It stops at one step:
        along a longer path SPARQL counts walks, the kernel counts
        nodes."""
        if self.shape is None or len(self.shape) > 2:
            return None
        root, *steps = self.shape
        x = root.s
        keyed = bool(query.group_by)
        if query.group_by not in ((), tuple(step.o for step in steps)) \
                or any(query.group_aliases):
            return None
        if any(agg.name != "COUNT" or (agg.distinct if agg.expr is None
                                       else agg.expr != x) for agg in group):
            return None
        read = [p.expr if p.expr is not None else p.var
                for p in query.projections]
        if x.name in _names((read, query.having,
                             [c.expr for c in query.order_by])):
            return None
        graph = self.graph
        ids = [graph.encode_term(term) for term in (_RDF_TYPE, root.o)]
        slot = (graph.encode_term(steps[0].p) if steps else None, False)
        store = graph.store_for(slot[0], None)
        key = self.slots[steps[0].o.name] if keyed else None
        counts = [(i, agg.distinct) for agg, i in group.items()]

        def count() -> List[SlotRow]:
            members = EMPTY_IDS if None in ids else graph.subjects_ids(*ids)
            if not steps:
                table = [(None, len(members), len(members))]
            else:  # a step the store never saw (id None) matches nothing
                counters, having = ({}, {}) if slot[0] is None else \
                    store.facet_counts(members, (slot,))
                counter = counters.get(slot, {})
                table = ([(value, n, n) for value, n in counter.items()]
                         if keyed else [(None, sum(counter.values()),
                                         having.get(slot, 0))])
            out = []
            for value, n, distinct in table:
                rep = self.row()
                if keyed:
                    rep[key] = value
                for i, of_distinct in counts:
                    rep[i] = self.bind(wrap_number(distinct if of_distinct
                                                   else n))
                out.append(rep)
            return out
        return count

    def star(self, fill: Callable[[List[list]], None]
             ) -> Optional[Callable[[], None]]:
        """The WHERE's star (:func:`_star_of`) expanded over the whole
        frontier and folded from its columns — or ``None`` when the
        WHERE is none.  A step repeats every column by the length of
        its rows, so solutions come in the pipeline's order."""
        if self.shape is None:
            return None
        root, *steps = self.shape
        graph, slot = self.graph, self.slots.__getitem__
        ids = [graph.encode_term(term) for term in (
            root.p, root.o, *(tp.p for tp in steps))]
        if None in ids:  # a constant the store never saw matches nothing
            return lambda: None
        plan = [(slot(tp.s.name), graph.store_for(pi, None), pi)
                for tp, pi in zip(steps, ids[2:])]
        root = graph.store_for(*ids[:2])

        def run() -> None:
            # Slot i's column: the star binds the first slots, in order;
            # the store's ``column`` at ``paths[i]`` while each holds one
            # row per root member (a view keeps it).
            paths = [tuple(ids[:2])]
            columns = [graph.column(paths[0], lambda: list(map(
                itemgetter(0), root.triples_ids(None, *ids[:2]))))]
            for a, store, pi in plan:
                read = partial(_objects_of, store, columns[a], pi,
                               a == 0 and bool(paths))  # no id twice
                if paths:
                    paths.append(paths[a] + (pi,))
                    values, lengths = graph.column(paths[-1], read)
                else:
                    values, lengths = read()
                if lengths is not None and lengths.count(1) != len(lengths):
                    paths.clear()  # none or many objects a row
                    columns = [list(chain.from_iterable(map(
                        repeat, column, lengths))) for column in columns]
                columns.append(values)
            fill(columns)
        return run

    def select(self, query: ast.SelectQuery
               ) -> Callable[[], Tuple[List[str], List[list]]]:
        """The query compiled: a run answering the projected names and,
        per answer row, the bindings aligned with them (``None``:
        unbound)."""
        bound, maybe = set(), set()
        where = self.group(query.where, bound, maybe)
        self.shape = _star_of(query.where, self.order)
        aggregated = bool(query.group_by or query.having or _found_in(
            [p.expr for p in query.projections], ast.Aggregate, {}))
        at: tuple = (bound, maybe, None)
        counted = star = None
        if aggregated:
            fold, fill, finish, group = self.grouping(query, at)
            counted = self.counted(query, group)
            star = None if counted else self.star(fill)
            at = (set(), set(self.slots), group)
        having = [self.condition(c, at) for c in query.having]
        if query.is_star:
            visible = sorted((n, i) for n, i in self.slots.items()
                             if not n.startswith(("__", ast.BLANK_PREFIX,
                                                  _HIDDEN)))
            projections = [itemgetter(i) for _, i in visible]
        else:
            visible = [(p.var.name, self.slot(p.var.name))
                       for p in query.projections]
            projections = [self.value(p.var if p.expr is None else p.expr, at)
                           for p in query.projections]
        order = [(self.expression(c.expr, at), c.descending)
                 for c in query.order_by]

        def run() -> Tuple[List[str], List[list]]:
            if aggregated:
                if star is not None:
                    star()
                elif counted is None:
                    where(fold)(self.row())
                rows = [rep for rep in (counted or finish)()
                        if all(test(rep) for test in having)]
            else:
                rows = self.rows_of(where)
            answer = [[project(row) for project in projections]
                      for row in rows]
            if order:  # over the row, its projected names overriding
                for row, values in zip(rows, answer):
                    for (_, i), value in zip(visible, values):
                        if value is not None:
                            row[i] = value
                # Stable sorts, the last condition first.
                ranked = list(zip(rows, answer))
                for compiled, descending in reversed(order):
                    ranked.sort(key=lambda pair: _sort_part(compiled, pair[0]),
                                reverse=descending)
                answer = [values for _, values in ranked]
            if query.distinct:  # equal bindings are equal terms
                answer = list({tuple(values): values
                               for values in answer}.values())
            answer = answer[query.offset:]
            if query.limit is not None:
                answer = answer[: query.limit]
            kept = [n for n, _ in enumerate(visible) if not query.is_star
                    or any(values[n] is not None for values in answer)]
            return [visible[n][0] for n in kept], [
                [values[n] for n in kept] for values in answer]
        return run


def _star_of(where: ast.GroupPattern, order: List[ast.TriplePattern]
             ) -> Optional[List[ast.TriplePattern]]:
    """Table 5.1's star: ``where``'s patterns in their join ``order``
    when they are triple patterns alone, a root ``?x rdf:type C`` (``C``
    a constant), then steps ``?a p ?b`` (``p`` a constant other than
    ``rdf:type``, ``?a`` reached, ``?b`` fresh) — else ``None``."""
    if not order or not all(isinstance(tp, ast.TriplePattern)
                            for tp in where.children):
        return None
    root = order[0]
    if root.p != _RDF_TYPE or not isinstance(root.s, ast.Var) \
            or isinstance(root.o, ast.Var):
        return None
    reached = {root.s}
    for tp in order[1:]:
        if tp.s not in reached or not isinstance(tp.p, IRI) \
                or tp.p == _RDF_TYPE or not isinstance(tp.o, ast.Var) \
                or tp.o in reached:
            return None
        reached.add(tp.o)
    return order


def _objects_of(store: Graph, subjects: List[int], pi: int, unique: bool
                ) -> Tuple[List[int], Optional[List[int]]]:
    """``store.objects_column(subjects, pi)``, with each distinct
    subject's row read once when ``subjects`` may hold an id twice."""
    if unique:
        return store.objects_column(subjects, pi)
    distinct = list(set(subjects))
    values, lengths = store.objects_column(distinct, pi)
    if lengths is None:
        rows = dict(zip(distinct, values))
        return list(map(rows.__getitem__, subjects)), None
    ends = [0, *accumulate(lengths)]
    return _column(list(map({s: values[i:j] for s, i, j in zip(
        distinct, ends, ends[1:])}.__getitem__, subjects)))


def _sort_part(compiled: Compiled, row: SlotRow) -> tuple:
    """One ORDER BY condition's sort key on a row; an error sorts first."""
    try:
        return compiled(row).sort_key()
    except ExpressionError:
        return (-1,)


def _reduce(agg: ast.Aggregate, values: List[Optional[Binding]],
            ctx: _Compiler) -> Optional[Term]:
    """One aggregate over one group's bindings, in arrival order
    (``None`` = an error or unbound, skipped).  COUNT counts bindings and
    SUM/AVG/MIN/MAX read their numbers; GROUP_CONCAT, SAMPLE and MIN/MAX
    over a term that is no number (ordered by sort key) decode."""
    present = ([v for v in values if v is not None] if None in values
               else values)
    if agg.distinct:  # equal bindings are equal terms
        present = list(dict.fromkeys(present))
    if agg.name == "COUNT":
        return wrap_number(len(present))
    if agg.name in _NUMERIC_AGGREGATES:
        try:  # each id's number read once
            numbers = list(map(ctx.numbers.__getitem__, present))
        except KeyError:
            numbers = list(map(ctx.number, present))
        if None not in numbers:
            return reduce_numbers(agg.name, numbers)
        if agg.name not in ("MIN", "MAX"):
            return None
    return eval_aggregate(agg.name, list(map(ctx.term, present)), False,
                          agg.separator)


# -- join planning and property paths (in ids) ------------------------------
def _pattern_selectivity(pattern: ast.TriplePattern, solution_vars: set,
                         graph: Graph) -> Tuple[int, int]:
    """Patterns with more bound slots first, then smaller index — O(1)
    ``count_ids`` probes; a constant the store never saw matches nothing
    (estimate 0)."""
    bound = 0
    for slot in (pattern.s, pattern.p, pattern.o):
        if not isinstance(slot, ast.Var) or slot.name in solution_vars:
            bound += 1
    estimate = len(graph)
    if not isinstance(pattern.p, ast.Var):
        free_object = isinstance(pattern.o, ast.Var)
        pi = graph.encode_term(pattern.p)
        oi = None if free_object else graph.encode_term(pattern.o)
        estimate = (0 if pi is None or (oi is None and not free_object)
                    else graph.count_ids(None, pi, oi))
    return (-bound, estimate)


def plan_block(block: List[ast.TriplePattern], bound_vars: set,
               graph: Graph) -> List[ast.TriplePattern]:
    """The evaluation order of one basic block: the most selective
    pattern first, then the rest planned again with its variables
    counted as bound, so freshly bound variables count as bound slots
    in the next pick."""
    order, bound, remaining = [], set(bound_vars), list(block)
    while remaining:
        remaining.sort(key=lambda tp: _pattern_selectivity(tp, bound, graph))
        order.append(remaining.pop(0))
        bound |= _names(order[-1])
    return order


def _path_targets(graph: Graph, nodes: object, path: ast.Path,
                  backward: bool = False) -> set:
    """The ids of all nodes reachable from the ids ``nodes`` along
    ``path`` — walked from its end when ``backward`` — (SPARQL 1.1 path
    semantics; quantified paths are evaluated as node closures).  Each
    step reads one row per node — the node's ``objects_ids``, or one
    ``triples_ids`` probe for an inverse step: a literal has no SPO row,
    and an inverse step may start from one."""
    if isinstance(path, ast.PredicatePath):
        pi = graph.encode_term(path.predicate)
        if pi is None:
            return set()
        if path.inverse != backward:
            return {s for node in nodes
                    for s, _, _ in graph.triples_ids(None, pi, node)}
        return set().union(*(graph.objects_ids(node, pi) for node in nodes))
    if isinstance(path, ast.SequencePath):
        current = set(nodes)
        for step in reversed(path.steps) if backward else path.steps:
            current = _path_targets(graph, current, step, backward)
            if not current:
                break
        return current
    if isinstance(path, ast.AlternativePath):
        out = set()
        for option in path.options:
            out |= _path_targets(graph, nodes, option, backward)
        return out
    if isinstance(path, ast.QuantifiedPath):
        if path.quantifier == "?":
            return set(nodes) | _path_targets(graph, nodes, path.inner, backward)
        # '*' and '+': breadth-first closure.
        closure = set(nodes) if path.quantifier == "*" else set()
        frontier, visited = set(nodes), set(nodes)
        while frontier:
            step = _path_targets(graph, frontier, path.inner, backward)
            closure |= step
            frontier = step - visited
            visited |= frontier
        return closure
    raise SparqlEvalError(f"unknown path node {type(path).__name__}")


def _nullable(path: ast.Path) -> bool:
    """Does ``path`` match the zero-length walk?"""
    if isinstance(path, ast.PredicatePath):
        return False
    if isinstance(path, ast.SequencePath):
        return all(map(_nullable, path.steps))
    if isinstance(path, ast.AlternativePath):
        return any(map(_nullable, path.options))
    return path.quantifier != "+" or _nullable(path.inner)


# -- query forms ---------------------------------------------------------
def select_rows(query: ast.SelectQuery, graph: Graph
                ) -> Tuple[List[str], List[Tuple[Optional[Term], ...]]]:
    """A parsed SELECT's answer over ``graph`` at the query's edge: the
    projected names and, per answer row, each projected binding decoded
    once (``None``: unbound)."""
    ctx = _Compiler(graph)
    names, answer = ctx.select(query)()
    return names, [tuple([None if value is None else ctx.term(value)
                          for value in values]) for values in answer]


def _eval_select(query: ast.SelectQuery, graph: Graph) -> SelectResult:
    """:func:`select_rows` as :class:`Row` mappings."""
    names, rows = select_rows(query, graph)
    return SelectResult(names, [
        Row({name: term for name, term in zip(names, terms)
             if term is not None}) for terms in rows])


def _eval_construct(query: ast.ConstructQuery, ctx: _Compiler) -> Graph:
    solutions = ctx.rows_of(ctx.group(query.where, set(), set()))
    result, fresh = Graph(), count(1)
    for solution in solutions[: query.limit]:
        blanks: Dict[str, BNode] = {}

        def resolve(slot):
            if isinstance(slot, ast.Var):
                i = ctx.slots.get(slot.name)
                binding = None if i is None else solution[i]
                return None if binding is None else ctx.term(binding)
            if isinstance(slot, BNode):
                if slot.label not in blanks:
                    blanks[slot.label] = BNode(f"c{next(fresh)}")
                return blanks[slot.label]
            return slot

        for pattern in query.template:
            s, p, o = map(resolve, (pattern.s, pattern.p, pattern.o))
            if s is not None and o is not None and isinstance(p, IRI) \
                    and not isinstance(s, Literal):
                result.add(s, p, o)
    return result


def evaluate(parsed: ast.Query, graph: Graph) -> QueryResult:
    """Evaluate a parsed query AST over a graph: compile it against the
    store, then run it."""
    if isinstance(parsed, ast.SelectQuery):
        return _eval_select(parsed, graph)
    ctx = _Compiler(graph)
    if isinstance(parsed, ast.AskQuery):
        return _any(ctx.group(parsed.where, set(), set())(_found), ctx.row())
    if isinstance(parsed, ast.ConstructQuery):
        return _eval_construct(parsed, ctx)
    raise SparqlEvalError(f"cannot evaluate {type(parsed).__name__}")


def _position_eval_error(exc: SparqlEvalError, text: str) -> SparqlEvalError:
    """Back-fill the source position of an evaluation error raised over
    *text* (already parsed): when the message names a variable
    (``?x``), attach the line/column of its first occurrence."""
    match = None if exc.line else re.search(r"\?(\w+)", str(exc))
    for token in tokenize(text) if match else ():
        if token.kind == "VAR" and token.text[1:] == match.group(1):
            return SparqlEvalError(str(exc), token.line, token.column)
    return exc


def query(graph: Graph, text: str) -> QueryResult:
    """Parse and evaluate SPARQL ``text`` over ``graph`` (a store or a
    read-only :class:`repro.rdf.overlay.ExtensionView` of one): a
    :class:`SelectResult` for SELECT, a :class:`bool` for ASK, a
    :class:`Graph` for CONSTRUCT.  SELECT and ASK answers are cached in
    ``graph.sparql_cache`` when it has one (a store does, a view does
    not), stamped with the store's generation, so any add/remove
    invalidates them; a hit is a fresh :class:`SelectResult` over the
    shared (treat-as-immutable) rows.  CONSTRUCT answers are never
    cached."""
    cache = getattr(graph, "sparql_cache", None)
    generation = graph.generation
    if cache is not None:
        cached = cache.get(text, generation, default=None)
        if cached is not None:
            kind, payload = cached
            if kind == "select":
                return SelectResult(payload.variables, list(payload.rows))
            return payload  # ASK boolean
    try:
        result = evaluate(parse_query(text), graph)
    except SparqlEvalError as exc:
        raise _position_eval_error(exc, text) from None
    if cache is None:
        return result
    if isinstance(result, SelectResult):
        # Snapshot the row list: the caller owns `result` and may
        # mutate its list in place, which must not reach the cache.
        snapshot = SelectResult(result.variables, list(result.rows))
        cache.put(text, generation, ("select", snapshot))
    elif isinstance(result, bool):
        cache.put(text, generation, ("ask", result))
    return result
