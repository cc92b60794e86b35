"""Recursive-descent parser for the SPARQL subset.

Entry point: :func:`parse_query`, returning a :class:`SelectQuery`,
:class:`AskQuery` or :class:`ConstructQuery` AST.

Besides the standard grammar, the parser accepts two convenience forms
that the dissertation's listings use:

* **bare aggregate / function projections** — ``SELECT ?x2 SUM(?x3)``
  and ``SELECT month(?x2) ...`` are accepted; such projections are given
  a synthesized variable name (``sum_x3``, ``month_x2``, ...);
* ``GROUP BY month(?x2)`` — function-call grouping conditions.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional as Opt, Tuple

from repro.caching import CacheStats, LRUCache, MISSING
from repro.rdf.namespace import RDF, WELL_KNOWN_PREFIXES
from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    Term,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    _unescape,
)
from repro.sparql import ast
from repro.sparql.errors import SparqlParseError
from repro.sparql.lexer import Token, tokenize

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT"}

#: How deep expressions, group graph patterns, blank-node property
#: lists and bracketed paths may nest, all together: far above what the
#: HIFUN translator emits, and far below where the recursive descent
#: would exhaust Python's stack.
MAX_NESTING = 50

_BUILTINS = {
    "STR", "LANG", "DATATYPE", "BOUND", "IF", "COALESCE",
    "YEAR", "MONTH", "DAY", "HOURS", "MINUTES", "SECONDS",
    "ABS", "CEIL", "FLOOR", "ROUND",
    "CONCAT", "UCASE", "LCASE", "STRLEN", "SUBSTR",
    "CONTAINS", "STRSTARTS", "STRENDS", "STRBEFORE", "STRAFTER", "REPLACE",
    "REGEX", "ISURI", "ISIRI", "ISLITERAL", "ISBLANK", "ISNUMERIC",
    "URI", "IRI",
}

class _Parser:
    """The SPARQL grammar.  Its terms and triples are Turtle's, so
    :class:`repro.rdf.turtle.TurtleParser` reads documents through it."""

    def __init__(self, text: str):
        self._tokens = tokenize(text)
        self._pos = 0
        self._prefixes: Dict[str, str] = dict(WELL_KNOWN_PREFIXES)
        self._base = ""
        self._auto_names: Dict[str, int] = {}
        self._bnode_count = 0
        self._depth = 0
        #: The blank node labels the text writes, which an anonymous
        #: ``[ … ]`` node must not be given.
        self._labels = {t.text[2:] for t in self._tokens if t.kind == "BNODE"}

    # -- token helpers ---------------------------------------------------
    def _peek(self, ahead: int = 0) -> Opt[Token]:
        index = self._pos + ahead
        if index < len(self._tokens):
            return self._tokens[index]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            line, column = self._end_position()
            raise SparqlParseError("unexpected end of query", line, column)
        self._pos += 1
        return token

    def _end_position(self) -> "Tuple[int, int]":
        """The position just past the last token (for end-of-input errors)."""
        if not self._tokens:
            return (1, 1)
        last = self._tokens[-1]
        return (last.line, last.column + len(last.text))

    def _at_punct(self, char: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == "PUNCT" and token.text == char

    def _at_op(self, text: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == "OP" and token.text == text

    def _at_name(self, *names: str) -> bool:
        token = self._peek()
        return token is not None and token.is_name(*names)

    def _eat_punct(self, char: str) -> None:
        token = self._next()
        if token.kind != "PUNCT" or token.text != char:
            raise SparqlParseError(
                f"expected {char!r}, got {token.text!r}", token.line, token.column
            )

    def _eat_name(self, *names: str) -> Token:
        token = self._next()
        if not token.is_name(*names):
            raise SparqlParseError(
                f"expected {'/'.join(names)}, got {token.text!r}",
                token.line,
                token.column,
            )
        return token

    @contextmanager
    def _nested(self) -> Iterator[None]:
        """Read a construct that opens at the next token one level
        deeper: past :data:`MAX_NESTING` levels, a positioned error at
        that token instead of a ``RecursionError`` further in."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING} levels")
        yield
        self._depth -= 1

    def _error(self, message: str) -> SparqlParseError:
        token = self._peek()
        if token is None:
            line, column = self._end_position()
            return SparqlParseError(
                f"{message}, got end of query", line, column
            )
        return SparqlParseError(
            f"{message}, got {token.text!r}", token.line, token.column
        )

    # -- entry points ------------------------------------------------------
    def parse(self):
        self._prologue()
        if self._at_name("SELECT"):
            query = self._select_query()
        elif self._at_name("ASK"):
            query = self._ask_query()
        elif self._at_name("CONSTRUCT"):
            query = self._construct_query()
        else:
            raise self._error("expected SELECT, ASK or CONSTRUCT")
        if self._peek() is not None:
            raise self._error("trailing tokens after query")
        return query

    def _prologue(self) -> None:
        while self._at_name("PREFIX", "BASE"):
            self._declaration(self._next().text.upper())

    def _declaration(self, keyword: str) -> None:
        """The body of a ``PREFIX`` or ``BASE`` declaration (``keyword``
        upper-cased); both IRIs resolve against the base in force."""
        if keyword == "PREFIX":
            name_token = self._next()
            if name_token.kind != "PNAME" or not name_token.text.endswith(":"):
                raise SparqlParseError(
                    "expected prefix declaration name",
                    name_token.line,
                    name_token.column,
                )
        iri_token = self._next()
        if iri_token.kind != "IRIREF":
            raise SparqlParseError(
                f"expected IRI in {keyword} declaration",
                iri_token.line,
                iri_token.column,
            )
        if keyword == "PREFIX":
            self._prefixes[name_token.text[:-1]] = self._iri(iri_token).value
        else:
            self._base = self._iri(iri_token).value

    # -- query forms -------------------------------------------------------
    def _select_query(self) -> ast.SelectQuery:
        self._eat_name("SELECT")
        distinct = False
        if self._at_name("DISTINCT"):
            self._next()
            distinct = True
        elif self._at_name("REDUCED"):
            self._next()
        star = self._peek()
        projections = self._projections()
        if self._at_name("WHERE"):
            self._next()
        where = self._group_graph_pattern()
        group_by, having, order_by, limit, offset = self._modifiers()
        if not projections and (group_by or having):  # SPARQL 1.1 §18.2.4.1
            raise SparqlParseError(
                "SELECT * is not allowed with GROUP BY or HAVING",
                star.line, star.column)
        return ast.SelectQuery(
            projections=tuple(projections),
            where=where,
            distinct=distinct,
            group_by=tuple(expr for expr, _ in group_by),
            having=tuple(having),
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            group_aliases=(tuple(alias for _, alias in group_by)
                           if any(alias for _, alias in group_by) else ()),
        )

    def _ask_query(self) -> ast.AskQuery:
        self._eat_name("ASK")
        if self._at_name("WHERE"):
            self._next()
        return ast.AskQuery(where=self._group_graph_pattern())

    def _construct_query(self) -> ast.ConstructQuery:
        self._eat_name("CONSTRUCT")
        template = self._construct_template()
        self._eat_name("WHERE")
        where = self._group_graph_pattern()
        limit = None
        if self._at_name("LIMIT"):
            self._next()
            limit = self._integer_value()
        return ast.ConstructQuery(template=tuple(template), where=where, limit=limit)

    def _construct_template(self) -> List[ast.TriplePattern]:
        self._eat_punct("{")
        patterns: List[ast.TriplePattern] = []
        while not self._at_punct("}"):
            for pattern in self._triples_same_subject():
                if not isinstance(pattern, ast.TriplePattern):
                    raise self._error("property paths are not allowed in CONSTRUCT templates")
                # a template's blank nodes are minted per solution
                patterns.append(ast.TriplePattern(
                    _template_slot(pattern.s), pattern.p,
                    _template_slot(pattern.o)))
            if self._at_punct("."):
                self._next()
        self._eat_punct("}")
        return patterns

    # -- projections ---------------------------------------------------------
    def _auto_var(self, stem: str) -> ast.Var:
        count = self._auto_names.get(stem, 0)
        self._auto_names[stem] = count + 1
        return ast.Var(stem if count == 0 else f"{stem}{count + 1}")

    def _projection_stem(self, expr: ast.Expression, default: str) -> str:
        """Readable auto-name for a bare projection, e.g. ``sum_x3``."""
        if isinstance(expr, (ast.Aggregate, ast.FunctionCall)):
            inner = None
            args = (expr.expr,) if isinstance(expr, ast.Aggregate) else expr.args
            for arg in args or ():
                if isinstance(arg, ast.Var):
                    inner = arg.name
                    break
            name = expr.name.lower().replace(":", "_").replace("#", "_")
            return f"{name}_{inner}" if inner else name
        return default

    def _projections(self) -> List[ast.Projection]:
        projections: List[ast.Projection] = []
        if self._at_op("*"):
            self._next()
            return projections
        while True:
            token = self._peek()
            if token is None:
                break
            if token.kind == "VAR":
                self._next()
                projections.append(ast.Projection(var=ast.Var(token.text[1:])))
                continue
            if token.kind == "PUNCT" and token.text == "(":
                self._next()
                expr = self._expression()
                var = self._alias()
                if var is None:
                    var = self._auto_var(self._projection_stem(expr, "expr"))
                self._eat_punct(")")
                projections.append(ast.Projection(var=var, expr=expr))
                continue
            if token.kind == "NAME" and not token.is_name("WHERE", "FROM") \
                    and self._peek(1) is not None and self._peek(1).text == "(":
                expr = self._expression_primary()
                var = self._auto_var(self._projection_stem(expr, "expr"))
                projections.append(ast.Projection(var=var, expr=expr))
                continue
            break
        if not projections:
            raise self._error("expected at least one projection")
        return projections

    def _alias(self) -> Opt[ast.Var]:
        """The variable of an ``AS ?v`` at the next token, if there is one."""
        if not self._at_name("AS"):
            return None
        self._next()
        var_token = self._next()
        if var_token.kind != "VAR":
            raise SparqlParseError(
                "expected variable after AS",
                var_token.line,
                var_token.column,
            )
        return ast.Var(var_token.text[1:])

    # -- solution modifiers ---------------------------------------------------
    def _modifiers(self):
        group_by: List[Tuple[ast.Expression, Opt[ast.Var]]] = []
        having: List[ast.Expression] = []
        order_by: List[ast.OrderCondition] = []
        limit: Opt[int] = None
        offset = 0
        while True:
            if self._at_name("GROUP"):
                self._next()
                self._eat_name("BY")
                group_by.extend(self._conditions("GROUP BY", self._group_condition))
            elif self._at_name("HAVING"):
                self._next()
                having.extend(self._conditions("HAVING", lambda: (
                    self._constraint() if self._at_constraint() else None)))
            elif self._at_name("ORDER"):
                self._next()
                self._eat_name("BY")
                order_by.extend(self._conditions("ORDER BY", self._order_condition))
            elif self._at_name("LIMIT"):
                self._next()
                limit = self._integer_value()
            elif self._at_name("OFFSET"):
                self._next()
                offset = self._integer_value()
            else:
                break
        return group_by, having, order_by, limit, offset

    def _integer_value(self) -> int:
        token = self._next()
        if token.kind != "INTEGER":
            raise SparqlParseError(
                f"expected an integer, got {token.text!r}", token.line, token.column
            )
        return int(token.text)

    def _conditions(self, clause: str, condition: Callable[[], Any]) -> list:
        """A ``clause``'s conditions: ``condition()`` until no condition
        starts (``None``), at least one."""
        conditions = []
        while (found := condition()) is not None:
            conditions.append(found)
        if not conditions:
            raise self._error(f"expected {clause} condition")
        return conditions

    def _group_condition(self) -> Opt[Tuple[ast.Expression, Opt[ast.Var]]]:
        """A GROUP BY condition with its ``AS`` variable (or ``None``):
        a variable, ``( expr AS ?v )`` or a Constraint."""
        token = self._peek()
        if token is not None and token.kind == "VAR":
            self._next()
            return (ast.Var(token.text[1:]), None)
        if self._at_punct("("):
            self._next()
            expr = self._expression()
            alias = self._alias()
            self._eat_punct(")")
            return (expr, alias)
        return (self._constraint(), None) if self._at_constraint() else None

    def _order_condition(self) -> Opt[ast.OrderCondition]:
        """An ORDER BY condition: ``ASC`` / ``DESC`` of a bracketted
        expression, a variable or a Constraint."""
        token = self._peek()
        if self._at_name("ASC", "DESC"):
            descending = self._next().text.upper() == "DESC"
            return ast.OrderCondition(self._bracketted(), descending)
        if token is not None and token.kind == "VAR":
            self._next()
            return ast.OrderCondition(ast.Var(token.text[1:]))
        return ast.OrderCondition(self._constraint()) if self._at_constraint() else None

    def _at_constraint(self) -> bool:
        """Whether a Constraint starts here: ``(``, or a builtin,
        aggregate or function name before ``(``."""
        if self._at_punct("("):
            return True
        token, after = self._peek(), self._peek(1)
        return after is not None and after.text == "(" and (
            token.kind in ("PNAME", "IRIREF") or token.kind == "NAME"
            and token.text.upper() in (_BUILTINS | _AGGREGATES))

    def _constraint(self) -> ast.Expression:
        """SPARQL 1.1's Constraint, the condition of FILTER and HAVING
        and a form of GROUP BY's and ORDER BY's: ``( expr )`` or a
        builtin, aggregate or function call."""
        return self._bracketted() if self._at_punct("(") else self._expression_primary()

    def _bracketted(self) -> ast.Expression:
        self._eat_punct("(")
        expr = self._expression()
        self._eat_punct(")")
        return expr

    # -- graph patterns ---------------------------------------------------
    def _group_graph_pattern(self) -> ast.GroupPattern:
        with self._nested():
            return self._group_body()

    def _group_body(self) -> ast.GroupPattern:
        self._eat_punct("{")
        if self._at_name("SELECT"):
            sub = self._select_query()
            self._eat_punct("}")
            return ast.GroupPattern(children=(ast.SubSelect(sub),))
        children: List[ast.Pattern] = []
        while not self._at_punct("}"):
            token = self._peek()
            if token is None:
                raise self._error("unterminated group pattern")
            if token.is_name("FILTER"):
                self._next()
                children.append(ast.Filter(self._constraint()))
            elif token.is_name("OPTIONAL"):
                self._next()
                children.append(ast.Optional_(self._group_graph_pattern()))
            elif token.is_name("MINUS"):
                self._next()
                children.append(ast.Minus(self._group_graph_pattern()))
            elif token.is_name("BIND"):
                self._next()
                self._eat_punct("(")
                expr = self._expression()
                self._eat_name("AS")
                var_token = self._next()
                if var_token.kind != "VAR":
                    raise SparqlParseError(
                        "expected variable after AS", var_token.line, var_token.column
                    )
                self._eat_punct(")")
                children.append(ast.Bind(expr, ast.Var(var_token.text[1:])))
            elif token.is_name("VALUES"):
                self._next()
                children.append(self._values_clause())
            elif token.kind == "PUNCT" and token.text == "{":
                children.append(self._group_or_union())
            else:
                children.extend(self._triples_same_subject())
            if self._at_punct("."):
                self._next()
        self._eat_punct("}")
        return ast.GroupPattern(children=tuple(children))

    def _group_or_union(self) -> ast.Pattern:
        left = self._group_graph_pattern()
        if not self._at_name("UNION"):
            return left
        result: ast.Pattern = left
        while self._at_name("UNION"):
            self._next()
            right = self._group_graph_pattern()
            if not isinstance(result, ast.GroupPattern):
                result = ast.GroupPattern(children=(result,))
            result = ast.Union(result, right)
        return result

    def _values_clause(self) -> ast.InlineValues:
        variables: List[ast.Var] = []
        token = self._peek()
        if token is not None and token.kind == "VAR":
            variables.append(ast.Var(self._next().text[1:]))
            single = True
        else:
            self._eat_punct("(")
            while not self._at_punct(")"):
                var_token = self._next()
                if var_token.kind != "VAR":
                    raise SparqlParseError(
                        "expected variable in VALUES",
                        var_token.line,
                        var_token.column,
                    )
                variables.append(ast.Var(var_token.text[1:]))
            self._next()
            single = False
        rows: List[Tuple[Opt[Term], ...]] = []
        self._eat_punct("{")
        while not self._at_punct("}"):
            if single:
                rows.append((self._values_term(),))
            else:
                self._eat_punct("(")
                row: List[Opt[Term]] = []
                while not self._at_punct(")"):
                    row.append(self._values_term())
                self._next()
                if len(row) != len(variables):
                    raise self._error("VALUES row arity mismatch")
                rows.append(tuple(row))
        self._next()
        return ast.InlineValues(tuple(variables), tuple(rows))

    def _values_term(self) -> Opt[Term]:
        if self._at_name("UNDEF"):
            self._next()
            return None
        slot = self._term_slot()
        if isinstance(slot, ast.Var):
            raise self._error(
                "variables and blank nodes are not allowed inside VALUES data")
        return slot

    # -- triples ------------------------------------------------------------
    def _triples_same_subject(self) -> List[ast.Pattern]:
        patterns: List[ast.Pattern] = []
        if self._at_punct("["):
            subject = self._blank_node_property_list(patterns)
        else:
            subject = self._term_slot()
            if isinstance(subject, Literal):
                raise self._error("literal cannot be a subject")
        self._predicate_object_list(subject, patterns)
        return patterns

    def _blank_node_property_list(self, patterns: List[ast.Pattern]) -> ast.Slot:
        node = self._blank_node(self._fresh_label())
        with self._nested():
            self._eat_punct("[")
            if not self._at_punct("]"):
                self._predicate_object_list(node, patterns)
            self._eat_punct("]")
        return node

    def _fresh_label(self) -> str:
        """The label of the next anonymous ``[ … ]`` node: ``q1``,
        ``q2``, … in document order, passing over the labels the text
        writes itself, so the two never merge."""
        while True:
            self._bnode_count += 1
            label = f"q{self._bnode_count}"
            if label not in self._labels:
                return label

    def _blank_node(self, label: str) -> ast.Slot:
        """What the blank node ``label`` is in a triple: in a query
        pattern, a variable no query text can name (SPARQL 1.1 §4.1.4);
        Turtle keeps it a blank node."""
        return ast.Var(ast.BLANK_PREFIX + label)

    def _predicate_object_list(self, subject: ast.Slot,
                               patterns: List[ast.Pattern]) -> None:
        while True:
            path = self._path()
            while True:
                if self._at_punct("["):
                    obj = self._blank_node_property_list(patterns)
                else:
                    obj = self._term_slot()
                patterns.append(self._make_pattern(subject, path, obj))
                if self._at_punct(","):
                    self._next()
                    continue
                break
            if self._at_punct(";"):
                self._next()
                token = self._peek()
                if token is not None and (
                    (token.kind == "PUNCT" and token.text in ".]}")
                ):
                    return
                continue
            return

    @staticmethod
    def _make_pattern(subject, path, obj) -> ast.Pattern:
        if isinstance(path, ast.PredicatePath) and not path.inverse:
            return ast.TriplePattern(subject, path.predicate, obj)
        if isinstance(path, ast.Var):
            return ast.TriplePattern(subject, path, obj)
        return ast.PathPattern(subject, path, obj)

    def _path(self):
        token = self._peek()
        if token is not None and token.kind == "VAR":
            self._next()
            return ast.Var(token.text[1:])
        return self._path_alternative()

    def _path_alternative(self):
        options = [self._path_sequence()]
        while self._at_op("|"):
            self._next()
            options.append(self._path_sequence())
        if len(options) == 1:
            return options[0]
        return ast.AlternativePath(tuple(options))

    def _path_sequence(self):
        steps = [self._path_elt()]
        while self._at_op("/"):
            self._next()
            steps.append(self._path_elt())
        if len(steps) == 1:
            return steps[0]
        return ast.SequencePath(tuple(steps))

    def _path_elt(self):
        inverse = False
        if self._at_op("^"):
            self._next()
            inverse = True
        primary = self._path_primary()
        if inverse:
            if isinstance(primary, ast.PredicatePath):
                primary = ast.PredicatePath(primary.predicate, not primary.inverse)
            else:
                raise self._error(
                    "inverse (^) of a grouped path is not supported"
                )
        token = self._peek()
        if token is not None and token.kind == "OP" and token.text in "*+?":
            self._next()
            return ast.QuantifiedPath(primary, token.text)
        return primary

    def _path_primary(self):
        if self._at_punct("("):
            with self._nested():
                self._next()
                inner = self._path_alternative()
                self._eat_punct(")")
            return inner
        token = self._next()
        if token.kind == "NAME" and token.text == "a":
            return ast.PredicatePath(RDF.type, False)
        if token.kind == "IRIREF":
            return ast.PredicatePath(self._iri(token), False)
        if token.kind == "PNAME":
            return ast.PredicatePath(self._pname(token), False)
        raise SparqlParseError(
            f"expected a predicate, got {token.text!r}", token.line, token.column
        )

    def _iri(self, token: Token) -> IRI:
        """An ``IRIREF`` token's IRI, a relative one resolved against the
        base (by concatenation)."""
        iri = token.text[1:-1]
        if self._base and "://" not in iri and not iri.startswith("urn:"):
            return IRI(self._base + iri)
        return IRI(iri)

    def _term_slot(self):
        """A term in a triple slot: Var or constant Term."""
        token = self._next()
        if token.kind == "VAR":
            return ast.Var(token.text[1:])
        if token.kind == "IRIREF":
            return self._iri(token)
        if token.kind == "PNAME":
            return self._pname(token)
        if token.kind == "BNODE":
            return self._blank_node(token.text[2:])
        if token.kind == "STRING":
            return self._string_literal(token)
        if token.kind == "INTEGER":
            return Literal(token.text, XSD_INTEGER)
        if token.kind == "DECIMAL":
            return Literal(token.text, XSD_DECIMAL)
        if token.kind == "DOUBLE":
            return Literal(token.text, XSD_DOUBLE)
        if token.is_name("TRUE", "FALSE"):
            return Literal(token.text.lower(), XSD_BOOLEAN)
        raise SparqlParseError(
            f"expected an RDF term, got {token.text!r}", token.line, token.column
        )

    def _string_literal(self, token: Token) -> Literal:
        text = token.text
        if text.startswith(('"""', "'''")):
            lexical = _unescape(text[3:-3])
        else:
            lexical = _unescape(text[1:-1])
        nxt = self._peek()
        if nxt is not None and nxt.kind == "LANGTAG":
            self._next()
            return Literal(lexical, XSD_STRING, nxt.text[1:])
        if nxt is not None and nxt.kind == "DTYPE":
            self._next()
            dt_token = self._next()
            if dt_token.kind == "IRIREF":
                datatype = self._iri(dt_token).value
            elif dt_token.kind == "PNAME":
                datatype = self._pname(dt_token).value
            else:
                raise SparqlParseError(
                    "expected datatype after ^^", dt_token.line, dt_token.column
                )
            return Literal(lexical, datatype)
        return Literal(lexical, XSD_STRING)

    def _pname(self, token: Token) -> IRI:
        prefix, _, local = token.text.partition(":")
        if prefix not in self._prefixes:
            raise SparqlParseError(
                f"undefined prefix {prefix!r}", token.line, token.column
            )
        return IRI(self._prefixes[prefix] + local)

    # -- expressions --------------------------------------------------------
    def _expression(self) -> ast.Expression:
        return self._or_expression()

    def _or_expression(self) -> ast.Expression:
        left = self._and_expression()
        while self._at_op("||"):
            self._next()
            left = ast.Binary("||", left, self._and_expression())
        return left

    def _and_expression(self) -> ast.Expression:
        left = self._relational_expression()
        while self._at_op("&&"):
            self._next()
            left = ast.Binary("&&", left, self._relational_expression())
        return left

    def _relational_expression(self) -> ast.Expression:
        left = self._additive_expression()
        token = self._peek()
        if token is not None and token.kind == "OP" and token.text in (
            "=", "!=", "<", ">", "<=", ">=",
        ):
            op = self._next().text
            return ast.Binary(op, left, self._additive_expression())
        if self._at_name("IN"):
            self._next()
            return ast.InExpr(left, tuple(self._expression_list()), negated=False)
        if self._at_name("NOT"):
            self._next()
            self._eat_name("IN")
            return ast.InExpr(left, tuple(self._expression_list()), negated=True)
        return left

    def _expression_list(self) -> List[ast.Expression]:
        items: List[ast.Expression] = []
        with self._nested():
            self._eat_punct("(")
            while not self._at_punct(")"):
                items.append(self._expression())
                if self._at_punct(","):
                    self._next()
            self._next()
        return items

    def _additive_expression(self) -> ast.Expression:
        left = self._multiplicative_expression()
        while True:
            if self._at_op("+"):
                self._next()
                left = ast.Binary("+", left, self._multiplicative_expression())
            elif self._at_op("-"):
                self._next()
                left = ast.Binary("-", left, self._multiplicative_expression())
            else:
                return left

    def _multiplicative_expression(self) -> ast.Expression:
        left = self._unary_expression()
        while True:
            if self._at_op("*"):
                self._next()
                left = ast.Binary("*", left, self._unary_expression())
            elif self._at_op("/"):
                self._next()
                left = ast.Binary("/", left, self._unary_expression())
            else:
                return left

    def _unary_expression(self) -> ast.Expression:
        token = self._peek()
        if token is None or token.kind != "OP" or token.text not in ("!", "-", "+"):
            return self._expression_primary()
        with self._nested():
            self._next()
            return ast.Unary(token.text, self._unary_expression())

    def _expression_primary(self) -> ast.Expression:
        token = self._peek()
        if token is None:
            raise self._error("expected an expression")
        if token.kind == "PUNCT" and token.text == "(":
            with self._nested():
                self._next()
                expr = self._expression()
                self._eat_punct(")")
            return expr
        if token.kind == "VAR":
            self._next()
            return ast.Var(token.text[1:])
        if token.kind == "NAME":
            upper = token.text.upper()
            if upper in ("TRUE", "FALSE"):
                self._next()
                return ast.TermExpr(Literal(token.text.lower(), XSD_BOOLEAN))
            if upper in ("EXISTS", "NOT"):
                negated = False
                if upper == "NOT":
                    self._next()
                    self._eat_name("EXISTS")
                    negated = True
                else:
                    self._next()
                return ast.ExistsExpr(self._group_graph_pattern(), negated)
            if upper in _AGGREGATES:
                return self._aggregate()
            if upper in _BUILTINS:
                self._next()
                args = tuple(self._expression_list())
                return ast.FunctionCall(upper, args)
            raise SparqlParseError(
                f"unknown function or keyword {token.text!r}",
                token.line,
                token.column,
            )
        if token.kind in ("PNAME", "IRIREF"):
            # Cast/constructor call (xsd:integer("1")) or a plain IRI term.
            iri = self._pname(token) if token.kind == "PNAME" else self._iri(token)
            self._next()
            if self._at_punct("("):
                args = tuple(self._expression_list())
                return ast.FunctionCall(iri.value, args)
            return ast.TermExpr(iri)
        if token.kind in ("STRING", "INTEGER", "DECIMAL", "DOUBLE"):
            term = self._term_slot()
            return ast.TermExpr(term)
        raise SparqlParseError(
            f"cannot parse expression at {token.text!r}", token.line, token.column
        )

    def _aggregate(self) -> ast.Aggregate:
        name = self._next().text.upper()
        with self._nested():
            return self._aggregate_arguments(name)

    def _aggregate_arguments(self, name: str) -> ast.Aggregate:
        self._eat_punct("(")
        distinct = False
        if self._at_name("DISTINCT"):
            self._next()
            distinct = True
        if self._at_op("*"):
            self._next()
            self._eat_punct(")")
            return ast.Aggregate(name, None, distinct)
        expr = self._expression()
        separator = " "
        if self._at_punct(";"):
            self._next()
            self._eat_name("SEPARATOR")
            token = self._next()
            if token.kind != "OP" or token.text != "=":
                raise SparqlParseError(
                    "expected '=' after SEPARATOR", token.line, token.column
                )
            sep_token = self._next()
            if sep_token.kind != "STRING":
                raise SparqlParseError(
                    "expected string separator", sep_token.line, sep_token.column
                )
            separator = _unescape(sep_token.text[1:-1])
        self._eat_punct(")")
        return ast.Aggregate(name, expr, distinct, separator)


def _template_slot(slot: ast.Slot) -> ast.Slot:
    """A CONSTRUCT template's slot, its blank node's variable back to
    the blank node it was written as."""
    if isinstance(slot, ast.Var) and slot.name.startswith(ast.BLANK_PREFIX):
        return BNode(slot.name[len(ast.BLANK_PREFIX):])
    return slot


#: Query text → AST.  Parsing is pure and ASTs are frozen dataclasses,
#: so entries never go stale; the bound keeps pathological workloads
#: (millions of distinct query strings) from growing memory.
_PARSE_CACHE = LRUCache(maxsize=512, name="sparql-parse")


def parse_query(text: str) -> ast.Query:
    """Parse SPARQL text into an AST (SelectQuery / AskQuery / ConstructQuery).

    Repeated texts are served from an LRU cache — the facet engine and
    the HIFUN translator re-issue structurally identical queries on
    every interaction, so parsing would otherwise dominate small-graph
    latencies.
    """
    parsed = _PARSE_CACHE.get(text, MISSING)
    if parsed is MISSING:
        parsed = _Parser(text).parse()
        _PARSE_CACHE.put(text, parsed)
    return parsed


def parse_cache_stats() -> CacheStats:
    """Hit/miss counters of the text → AST cache."""
    return _PARSE_CACHE.stats()


def clear_parse_cache() -> None:
    _PARSE_CACHE.clear()
