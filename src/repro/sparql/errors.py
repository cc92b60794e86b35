"""Exception hierarchy of the SPARQL engine."""


class SparqlError(Exception):
    """Base class for all SPARQL engine errors."""


class PositionedSparqlError(SparqlError):
    """A SPARQL error carrying an optional 1-based source position.

    ``line == 0`` means "no position available"; when a position is known
    it is appended to the message and exposed as ``.line`` / ``.column``
    so callers (CLI, analyzers) can point at the offending clause.  The
    message without the position is ``.message``.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        position = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{position}")
        self.message = message
        self.line = line
        self.column = column


class SparqlParseError(PositionedSparqlError):
    """Raised when query text cannot be parsed; carries the position."""


class SparqlEvalError(PositionedSparqlError):
    """Raised on evaluation errors that must abort the query.

    Expression errors *inside* ``FILTER`` do not raise — per the SPARQL
    semantics they make the filter condition effectively false; this
    exception is for structural problems (unknown aggregate, unbound
    projection of a required expression, etc.).  When the query came in
    as text, :func:`repro.sparql.evaluator.query` back-fills the position
    of the variable the message refers to.
    """


class ExpressionError(SparqlError):
    """Internal: a SPARQL expression evaluated to a type error.

    Caught by FILTER evaluation (condition becomes false) and by
    projection (the variable stays unbound), mirroring the standard's
    error propagation rules.
    """
