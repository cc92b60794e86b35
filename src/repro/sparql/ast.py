"""AST node classes for the SPARQL subset.

Two families of nodes:

* **patterns** — :class:`TriplePattern`, :class:`PathPattern`,
  :class:`GroupPattern`, :class:`Optional_`, :class:`Union`,
  :class:`Minus`, :class:`Bind`, :class:`InlineValues`, :class:`Filter`,
  :class:`SubSelect`;
* **expressions** — :class:`Var`, :class:`TermExpr`, :class:`Unary`,
  :class:`Binary`, :class:`FunctionCall`, :class:`Aggregate`,
  :class:`InExpr`, :class:`ExistsExpr`.

All nodes are frozen dataclasses so ASTs hash and compare structurally,
which the tests rely on.  :func:`scope_of` is the one rule for the
variables a pattern binds, which the evaluator and the linter share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional as Opt, Set, Tuple, Union as U

from repro.rdf.terms import Term


#: The name prefix of the variable a pattern's blank node stands for.
BLANK_PREFIX = "_:"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
class Expression:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Expression):
    """A query variable, e.g. ``?price`` — stored without the ``?``.

    A blank node in a query pattern is a variable too (SPARQL 1.1
    §4.1.4), named ``_:label`` (:data:`BLANK_PREFIX`): no ``?name`` of
    query text can take that name, and ``SELECT *`` leaves it out."""

    name: str

    def __str__(self):
        return self.name if self.name.startswith(BLANK_PREFIX) else f"?{self.name}"


@dataclass(frozen=True)
class TermExpr(Expression):
    """A constant RDF term used as an expression."""

    term: Term

    def __str__(self):
        return self.term.n3()


@dataclass(frozen=True)
class Unary(Expression):
    """Unary operator application: ``!``, ``-`` or ``+``."""

    op: str
    operand: Expression


@dataclass(frozen=True)
class Binary(Expression):
    """Binary operator application (logical, comparison, arithmetic)."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A builtin call (by keyword) or a cast (by XSD constructor IRI)."""

    name: str
    args: Tuple[Expression, ...]


@dataclass(frozen=True)
class Aggregate(Expression):
    """An aggregate: COUNT/SUM/AVG/MIN/MAX/SAMPLE/GROUP_CONCAT.

    ``expr`` is ``None`` only for ``COUNT(*)``.
    """

    name: str
    expr: Opt[Expression]
    distinct: bool = False
    separator: str = " "


@dataclass(frozen=True)
class InExpr(Expression):
    """``expr IN (e1, ..., en)`` or its negation."""

    expr: Expression
    options: Tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class ExistsExpr(Expression):
    """``EXISTS { pattern }`` or ``NOT EXISTS { pattern }``."""

    pattern: "GroupPattern"
    negated: bool = False


# ---------------------------------------------------------------------------
# Property paths
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PredicatePath:
    """A single predicate step; ``inverse`` flips subject/object."""

    predicate: Term
    inverse: bool = False


@dataclass(frozen=True)
class SequencePath:
    """A ``p1/p2/.../pk`` path."""

    steps: Tuple["Path", ...]


@dataclass(frozen=True)
class AlternativePath:
    """A ``p1|p2|...`` path: any branch may match."""

    options: Tuple["Path", ...]


@dataclass(frozen=True)
class QuantifiedPath:
    """A quantified path: ``p*`` (zero or more), ``p+`` (one or more),
    ``p?`` (zero or one)."""

    inner: "Path"
    quantifier: str  # one of "*", "+", "?"


Path = U[PredicatePath, SequencePath, AlternativePath, QuantifiedPath]


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------
class Pattern:
    """Marker base class for graph pattern nodes."""

    __slots__ = ()


#: A term slot in a triple pattern: either a constant Term or a Var.
Slot = U[Term, Var]


@dataclass(frozen=True)
class TriplePattern(Pattern):
    s: Slot
    p: Slot
    o: Slot

    def __str__(self):
        def show(x):
            return str(x) if isinstance(x, Var) else x.n3()

        return f"{show(self.s)} {show(self.p)} {show(self.o)} ."


@dataclass(frozen=True)
class PathPattern(Pattern):
    """A triple pattern whose predicate position is a property path."""

    s: Slot
    path: Path
    o: Slot


@dataclass(frozen=True)
class Filter(Pattern):
    condition: Expression


@dataclass(frozen=True)
class Bind(Pattern):
    expr: Expression
    var: Var


@dataclass(frozen=True)
class InlineValues(Pattern):
    """``VALUES (?a ?b) { (v1 v2) ... }`` — ``None`` entries are UNDEF."""

    variables: Tuple[Var, ...]
    rows: Tuple[Tuple[Opt[Term], ...], ...]


@dataclass(frozen=True)
class GroupPattern(Pattern):
    """A ``{ ... }`` group: an ordered sequence of child patterns."""

    children: Tuple[Pattern, ...] = ()


@dataclass(frozen=True)
class Optional_(Pattern):
    pattern: GroupPattern


@dataclass(frozen=True)
class Union(Pattern):
    left: GroupPattern
    right: GroupPattern


@dataclass(frozen=True)
class Minus(Pattern):
    pattern: GroupPattern


# ---------------------------------------------------------------------------
# Query forms
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Projection:
    """One SELECT item: a bare variable, or ``(expr AS ?name)``.

    Bare aggregates such as ``SUM(?x)`` (accepted for compatibility with
    the dissertation's listings) are given a synthesized name by the
    parser and represented here with ``expr`` set.
    """

    var: Var
    expr: Opt[Expression] = None


@dataclass(frozen=True)
class OrderCondition:
    expr: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectQuery(Pattern):
    """A SELECT query (also used for sub-selects, hence a Pattern)."""

    projections: Tuple[Projection, ...]  # empty tuple means SELECT *
    where: GroupPattern = field(default_factory=GroupPattern)
    distinct: bool = False
    group_by: Tuple[Expression, ...] = ()
    having: Tuple[Expression, ...] = ()
    order_by: Tuple[OrderCondition, ...] = ()
    limit: Opt[int] = None
    offset: int = 0
    #: The ``AS`` variable of each GROUP BY condition — ``(expr AS ?v)``
    #: binds ``?v`` to the group's key — ``None`` where a condition has
    #: none; empty when no condition has one.
    group_aliases: Tuple[Opt[Var], ...] = ()

    @property
    def is_star(self) -> bool:
        return not self.projections


@dataclass(frozen=True)
class SubSelect(Pattern):
    """A nested SELECT used inside a group pattern."""

    query: SelectQuery


@dataclass(frozen=True)
class AskQuery:
    where: GroupPattern


@dataclass(frozen=True)
class ConstructQuery:
    template: Tuple[TriplePattern, ...]
    where: GroupPattern
    limit: Opt[int] = None


#: A parsed query of any form.
Query = U[SelectQuery, AskQuery, ConstructQuery]


def scope_of(node: Pattern) -> Set[str]:
    """The variables a pattern can bind — its in-scope variables
    (SPARQL 1.1 §18.2.1).  A ``SELECT *`` sub-select's are those its
    WHERE's patterns bind; FILTER and MINUS bind nothing outward."""
    if isinstance(node, GroupPattern):
        return set().union(*map(scope_of, node.children))
    if isinstance(node, Optional_):
        return scope_of(node.pattern)
    if isinstance(node, Union):
        return scope_of(node.left) | scope_of(node.right)
    if isinstance(node, TriplePattern):
        return {x.name for x in (node.s, node.p, node.o) if isinstance(x, Var)}
    if isinstance(node, PathPattern):
        return {x.name for x in (node.s, node.o) if isinstance(x, Var)}
    if isinstance(node, Bind):
        return {node.var.name}
    if isinstance(node, InlineValues):
        return {var.name for var in node.variables}
    if isinstance(node, SubSelect):
        return ({p.var.name for p in node.query.projections}
                or scope_of(node.query.where))
    return set()
