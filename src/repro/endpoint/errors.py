"""The typed failure vocabulary of the endpoint substrate.

Real public SPARQL endpoints fail in a handful of characteristic ways —
requests hang past any reasonable deadline, the server answers with a
transient 5xx, a rate limiter rejects the call outright, or the result
arrives cut off mid-transfer.  Each of those gets its own exception
class so that consumers (the retry wrapper, the faceted session, the
CLI) can react per failure mode instead of pattern-matching strings.

Every error carries:

* ``elapsed`` — the virtual seconds the failed request consumed before
  dying (so deadline accounting works without real sleeping);
* ``attempts`` — how many attempts were made when the error is the
  final verdict of a retrying wrapper (1 for a raw endpoint);
* ``outcome`` — the short tag recorded in
  :class:`repro.endpoint.QueryStats` for this failure mode.
"""

from __future__ import annotations

from typing import Optional

from repro.sparql.evaluator import QueryResult


class EndpointError(RuntimeError):
    """Base class of every endpoint failure."""

    outcome = "error"

    def __init__(self, message: str, *, elapsed: float = 0.0,
                 attempts: int = 1):
        super().__init__(message)
        self.elapsed = elapsed
        self.attempts = attempts


class EndpointTimeout(EndpointError):
    """The request exceeded its (client- or server-side) deadline."""

    outcome = "timeout"

    def __init__(self, message: str, *, deadline: Optional[float] = None,
                 elapsed: float = 0.0, attempts: int = 1):
        super().__init__(message, elapsed=elapsed, attempts=attempts)
        self.deadline = deadline


class EndpointUnavailable(EndpointError):
    """A transient server-side failure (the 5xx family)."""

    outcome = "unavailable"


class EndpointRateLimited(EndpointError):
    """The server rejected the request at admission (HTTP 429 style).

    ``retry_after`` is the server-suggested wait in seconds; a retrying
    client must not come back sooner.
    """

    outcome = "rate_limited"

    def __init__(self, message: str, *, retry_after: float = 0.0,
                 elapsed: float = 0.0, attempts: int = 1):
        super().__init__(message, elapsed=elapsed, attempts=attempts)
        self.retry_after = retry_after


class EndpointTruncated(EndpointError):
    """The result arrived incomplete (connection dropped mid-transfer).

    ``partial`` holds whatever rows made it across before the cut — a
    resilient client retries; a degrading client may surface the partial
    result explicitly flagged as approximate.
    """

    outcome = "truncated"

    def __init__(self, message: str, *, partial: Optional[QueryResult] = None,
                 elapsed: float = 0.0, attempts: int = 1):
        super().__init__(message, elapsed=elapsed, attempts=attempts)
        self.partial = partial


class CircuitOpenError(EndpointError):
    """The circuit breaker is open — the request was not even sent.

    ``retry_in`` is the virtual time until the breaker half-opens and
    lets a probe through.
    """

    outcome = "circuit_open"

    def __init__(self, message: str, *, retry_in: float = 0.0,
                 elapsed: float = 0.0, attempts: int = 0):
        super().__init__(message, elapsed=elapsed, attempts=attempts)
        self.retry_in = retry_in


__all__ = [
    "EndpointError",
    "EndpointTimeout",
    "EndpointUnavailable",
    "EndpointRateLimited",
    "EndpointTruncated",
    "CircuitOpenError",
]
