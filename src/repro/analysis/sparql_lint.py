"""Static lint pass over the SPARQL AST (codes ``S000``–``S005``).

:func:`lint_sparql` accepts query text or an already-parsed AST and
reports structural defects that make a query (or part of it) dead on
arrival — without evaluating anything:

==========  =========  ========================================================
Code        Severity   Defect class
==========  =========  ========================================================
``S000``    error      the text does not parse (wraps the parse error,
                       position included)
``S001``    error      use of a never-bound variable (FILTER/BIND/HAVING/
                       GROUP BY/ORDER BY expression)
``S002``    error      projection (or CONSTRUCT template use) of a variable
                       the WHERE clause never binds
``S003``    error      provably always-false FILTER (constant folding and
                       contradictory equality conjunctions)
``S004``    warning    cartesian-product BGP block: the group's triple
                       patterns split into var-disjoint components
``S005``    warning    bare projection of a variable that is not a GROUP BY
                       key of an aggregating query
==========  =========  ========================================================

When linting from *text*, diagnostics about a variable carry the
line/column of its first occurrence, so user-facing errors can point at
the offending clause.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.rdf.terms import Term
from repro.sparql import ast
from repro.sparql.errors import ExpressionError, SparqlParseError
from repro.sparql.functions import compare, effective_boolean_value
from repro.sparql.lexer import tokenize
from repro.sparql.parser import parse_query
from repro.analysis.diagnostics import AnalysisReport, _Collector

AnyQuery = Union[ast.SelectQuery, ast.AskQuery, ast.ConstructQuery]


def lint_sparql(query: Union[str, AnyQuery]) -> AnalysisReport:
    """Lint SPARQL text or a parsed query AST."""
    positions: Dict[str, Tuple[int, int]] = {}
    parsed: Optional[AnyQuery]
    if isinstance(query, str):
        positions = _var_positions(query)
        try:
            parsed = parse_query(query)
        except SparqlParseError as exc:
            out = _Collector()
            out.error(
                "S000",
                f"query does not parse: {exc}",
                line=exc.line,
                column=exc.column,
            )
            return out.report()
    else:
        parsed = query
    linter = _Linter(positions)
    linter.lint(parsed)
    return linter.out.report()


def _var_positions(text: str) -> Dict[str, Tuple[int, int]]:
    """First occurrence (line, column) of every variable in the text."""
    positions: Dict[str, Tuple[int, int]] = {}
    try:
        tokens = tokenize(text)
    except SparqlParseError:
        return positions
    for token in tokens:
        if token.kind == "VAR":
            positions.setdefault(token.text[1:], (token.line, token.column))
    return positions


# ---------------------------------------------------------------------------
# Variable collection
# ---------------------------------------------------------------------------
def _slot_vars(*slots: object) -> Set[str]:
    return {slot.name for slot in slots if isinstance(slot, ast.Var)}


def _expr_vars(expr: ast.Expression) -> Set[str]:
    """Variables referenced by an expression (EXISTS blocks excluded —
    they bind their own)."""
    if isinstance(expr, ast.Var):
        return {expr.name}
    if isinstance(expr, ast.Unary):
        return _expr_vars(expr.operand)
    if isinstance(expr, ast.Binary):
        return _expr_vars(expr.left) | _expr_vars(expr.right)
    if isinstance(expr, ast.FunctionCall):
        out: Set[str] = set()
        for arg in expr.args:
            out |= _expr_vars(arg)
        return out
    if isinstance(expr, ast.Aggregate):
        return _expr_vars(expr.expr) if expr.expr is not None else set()
    if isinstance(expr, ast.InExpr):
        out = _expr_vars(expr.expr)
        for option in expr.options:
            out |= _expr_vars(option)
        return out
    return set()


def _child_bound(child: ast.Pattern) -> Set[str]:
    """Variables a pattern can bind (visible to its siblings)."""
    if isinstance(child, ast.TriplePattern):
        return _slot_vars(child.s, child.p, child.o)
    if isinstance(child, ast.PathPattern):
        return _slot_vars(child.s, child.o)
    if isinstance(child, ast.Bind):
        return {child.var.name}
    if isinstance(child, ast.InlineValues):
        return {var.name for var in child.variables}
    if isinstance(child, ast.GroupPattern):
        return _group_bound(child)
    if isinstance(child, ast.Optional_):
        return _group_bound(child.pattern)
    if isinstance(child, ast.Union):
        return _group_bound(child.left) | _group_bound(child.right)
    if isinstance(child, (ast.SubSelect, ast.SelectQuery)):
        query = child.query if isinstance(child, ast.SubSelect) else child
        if query.is_star:
            return _group_bound(query.where)
        return {projection.var.name for projection in query.projections}
    # Filter and Minus bind nothing outward.
    return set()


def _group_bound(group: ast.GroupPattern) -> Set[str]:
    out: Set[str] = set()
    for child in group.children:
        out |= _child_bound(child)
    return out


# ---------------------------------------------------------------------------
# Constant folding for S003
# ---------------------------------------------------------------------------
def _const_value(expr: ast.Expression) -> Optional[Term]:
    if isinstance(expr, ast.TermExpr):
        return expr.term
    return None


#: What :func:`_try_truth` returns for an expression whose evaluation
#: provably raises :class:`ExpressionError`.
_ERROR = object()


def _truth(expr: ast.Expression) -> Optional[bool]:
    """Fold an expression to a constant truth value when provable, None
    when it depends on a binding.  Folds with the evaluator's own
    ``compare`` / ``effective_boolean_value`` and, like them, raises
    :class:`ExpressionError` where evaluation provably raises one."""
    if isinstance(expr, ast.TermExpr):
        return effective_boolean_value(expr.term)
    if isinstance(expr, ast.Unary) and expr.op == "!":
        inner = _truth(expr.operand)
        return None if inner is None else not inner
    if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
        # SPARQL's three-valued logic, as the evaluator applies it: the
        # side that decides the outcome excuses an error on the other.
        decisive = expr.op == "||"
        sides = (_try_truth(expr.left), _try_truth(expr.right))
        if decisive in sides:
            return decisive
        if None in sides:
            return None
        if _ERROR in sides:
            raise ExpressionError(f"error in {expr.op} operand")
        return not decisive
    if isinstance(expr, ast.Binary) and expr.op in (
            "=", "!=", "<", ">", "<=", ">="):
        left_term = _const_value(expr.left)
        right_term = _const_value(expr.right)
        if left_term is not None and right_term is not None:
            return compare(expr.op, left_term, right_term)
    return None


def _try_truth(expr: ast.Expression) -> object:
    """:func:`_truth`, with an evaluation error returned as ``_ERROR``."""
    try:
        return _truth(expr)
    except ExpressionError:
        return _ERROR


def _conjuncts(expr: ast.Expression) -> List[ast.Expression]:
    if isinstance(expr, ast.Binary) and expr.op == "&&":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _equality_contradiction(expr: ast.Expression) -> Optional[str]:
    """A variable forced to equal two provably different constants by a
    conjunction; returns the variable name, or None."""
    forced: Dict[str, List[Term]] = {}
    for conjunct in _conjuncts(expr):
        if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
            continue
        var, const = conjunct.left, conjunct.right
        if not isinstance(var, ast.Var):
            var, const = const, var
        if not isinstance(var, ast.Var):
            continue
        term = _const_value(const)
        if term is None:
            continue
        forced.setdefault(var.name, []).append(term)
    for name, terms in forced.items():
        first = terms[0]
        for term in terms[1:]:
            if not compare("=", first, term):
                return name
    return None


# ---------------------------------------------------------------------------
# The linter
# ---------------------------------------------------------------------------
class _Linter:
    def __init__(self, positions: Dict[str, Tuple[int, int]]):
        self.out = _Collector()
        self._positions = positions

    def _pos(self, var: str) -> Dict[str, int]:
        line, column = self._positions.get(var, (0, 0))
        return {"line": line, "column": column}

    # ------------------------------------------------------------------
    def lint(self, query: AnyQuery) -> None:
        if isinstance(query, ast.SelectQuery):
            self._lint_select(query, "query")
        elif isinstance(query, ast.AskQuery):
            self._lint_group(query.where, frozenset(), "query.where")
        elif isinstance(query, ast.ConstructQuery):
            bound = self._lint_group(query.where, frozenset(), "query.where")
            for index, pattern in enumerate(query.template):
                for name in sorted(_slot_vars(pattern.s, pattern.p, pattern.o)):
                    if name not in bound:
                        self.out.error(
                            "S002",
                            f"CONSTRUCT template uses ?{name}, which the "
                            "WHERE clause never binds",
                            path=f"query.template[{index}]",
                            **self._pos(name),
                        )

    # ------------------------------------------------------------------
    def _lint_select(self, query: ast.SelectQuery, locator: str) -> None:
        bound = self._lint_group(query.where, frozenset(), f"{locator}.where")
        aliases: Set[str] = set()
        aggregated = bool(query.group_by) or any(
            projection.expr is not None
            and _contains_aggregate(projection.expr)
            for projection in query.projections
        )
        group_keys: Set[str] = {
            expr.name for expr in query.group_by if isinstance(expr, ast.Var)
        }
        for index, projection in enumerate(query.projections):
            where = f"{locator}.projections[{index}]"
            if projection.expr is not None:
                aliases.add(projection.var.name)
                for name in sorted(_expr_vars(projection.expr) - bound):
                    self.out.error(
                        "S002",
                        f"projection expression uses ?{name}, which the "
                        "WHERE clause never binds",
                        path=where,
                        **self._pos(name),
                    )
                continue
            name = projection.var.name
            if name not in bound:
                self.out.error(
                    "S002",
                    f"projected variable ?{name} is never bound by the "
                    "WHERE clause",
                    path=where,
                    hint="bind it in a pattern, or drop the projection",
                    **self._pos(name),
                )
            elif aggregated and group_keys and name not in group_keys:
                self.out.warning(
                    "S005",
                    f"?{name} is projected bare but is not a GROUP BY key "
                    "of this aggregating query",
                    path=where,
                    **self._pos(name),
                )
        scope = bound | aliases
        for family, expressions in (
            ("group_by", query.group_by),
            ("having", query.having),
            ("order_by", tuple(cond.expr for cond in query.order_by)),
        ):
            for index, expr in enumerate(expressions):
                for name in sorted(_expr_vars(expr) - scope):
                    self.out.error(
                        "S001",
                        f"{family.upper().replace('_', ' ')} uses ?{name}, "
                        "which is never bound",
                        path=f"{locator}.{family}[{index}]",
                        **self._pos(name),
                    )

    # ------------------------------------------------------------------
    def _lint_group(
        self,
        group: ast.GroupPattern,
        outer: FrozenSet[str],
        locator: str,
    ) -> Set[str]:
        bound = _group_bound(group) | outer
        seen: Set[str] = set(outer)
        for index, child in enumerate(group.children):
            where = f"{locator}.children[{index}]"
            if isinstance(child, ast.Filter):
                self._lint_filter(child, bound, where)
            elif isinstance(child, ast.Bind):
                for name in sorted(_expr_vars(child.expr) - seen):
                    detail = (
                        "bound only later in the group"
                        if name in bound
                        else "never bound in scope"
                    )
                    self.out.error(
                        "S001",
                        f"BIND expression uses ?{name}, which is {detail}",
                        path=where,
                        hint="BIND sees only the bindings of the patterns "
                        "before it",
                        **self._pos(name),
                    )
                seen.add(child.var.name)
            elif isinstance(child, ast.GroupPattern):
                self._lint_group(child, frozenset(bound), where)
                seen |= _child_bound(child)
            elif isinstance(child, ast.Optional_):
                self._lint_group(child.pattern, frozenset(bound), where)
                seen |= _child_bound(child)
            elif isinstance(child, ast.Union):
                self._lint_group(child.left, frozenset(bound), f"{where}.left")
                self._lint_group(child.right, frozenset(bound), f"{where}.right")
                seen |= _child_bound(child)
            elif isinstance(child, ast.Minus):
                self._lint_group(child.pattern, frozenset(bound), where)
            elif isinstance(child, ast.SubSelect):
                self._lint_select(child.query, where)
                seen |= _child_bound(child)
            else:
                seen |= _child_bound(child)
        self._check_cartesian(group, locator)
        return bound

    # ------------------------------------------------------------------
    def _lint_filter(
        self, child: ast.Filter, bound: Set[str], where: str
    ) -> None:
        for name in sorted(self._filter_refs(child.condition) - bound):
            self.out.error(
                "S001",
                f"FILTER references ?{name}, which no pattern in scope "
                "binds — the condition can never hold",
                path=where,
                **self._pos(name),
            )
        if _try_truth(child.condition) in (False, _ERROR):
            self.out.error(
                "S003",
                "FILTER condition is provably always false — the block "
                "yields no solutions",
                path=where,
            )
            return
        contradiction = _equality_contradiction(child.condition)
        if contradiction is not None:
            self.out.error(
                "S003",
                f"FILTER forces ?{contradiction} to equal two different "
                "constants — it is always false",
                path=where,
                **self._pos(contradiction),
            )

    @staticmethod
    def _filter_refs(expr: ast.Expression) -> Set[str]:
        """Variables a filter references; EXISTS blocks resolve their own
        bindings and are skipped."""
        if isinstance(expr, ast.ExistsExpr):
            return set()
        if isinstance(expr, ast.Unary):
            return _Linter._filter_refs(expr.operand)
        if isinstance(expr, ast.Binary):
            return _Linter._filter_refs(expr.left) | _Linter._filter_refs(
                expr.right
            )
        if isinstance(expr, ast.FunctionCall):
            out: Set[str] = set()
            for arg in expr.args:
                out |= _Linter._filter_refs(arg)
            return out
        if isinstance(expr, ast.InExpr):
            out = _Linter._filter_refs(expr.expr)
            for option in expr.options:
                out |= _Linter._filter_refs(option)
            return out
        return _expr_vars(expr)

    # ------------------------------------------------------------------
    def _check_cartesian(self, group: ast.GroupPattern, locator: str) -> None:
        """S004: triple/path patterns of one group that share no variable
        (directly or through FILTER/BIND/VALUES/nested blocks)."""
        parent: Dict[str, str] = {}

        def find(name: str) -> str:
            root = name
            while parent.get(root, root) != root:
                root = parent[root]
            parent[name] = root
            return root

        def union(names: Set[str]) -> None:
            ordered = sorted(names)
            first = find(ordered[0])
            for other in ordered[1:]:
                parent[find(other)] = first

        pattern_units: List[Set[str]] = []
        for child in group.children:
            if isinstance(child, (ast.TriplePattern, ast.PathPattern)):
                names = _child_bound(child)
                if names:
                    pattern_units.append(names)
                    union(names)
            elif isinstance(child, ast.Filter):
                names = self._filter_refs(child.condition)
                if len(names) > 1:
                    union(names)
            elif isinstance(child, ast.Bind):
                names = _expr_vars(child.expr) | {child.var.name}
                union(names)
            else:
                names = _child_bound(child)
                if len(names) > 1:
                    union(names)
        if len(pattern_units) < 2:
            return
        roots = {find(sorted(names)[0]) for names in pattern_units}
        if len(roots) > 1:
            self.out.warning(
                "S004",
                f"the group's triple patterns split into {len(roots)} "
                "variable-disjoint components — their join is a cartesian "
                "product",
                path=locator,
                hint="connect the components through a shared variable, or "
                "split the query",
            )


def _contains_aggregate(expr: ast.Expression) -> bool:
    if isinstance(expr, ast.Aggregate):
        return True
    if isinstance(expr, ast.Unary):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.Binary):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.FunctionCall):
        return any(_contains_aggregate(arg) for arg in expr.args)
    return False
