"""Deadline / retry / circuit-breaker wrapper around any endpoint.

:class:`ResilientEndpoint` sits between query producers (the faceted
session, the HIFUN evaluation path, the CLI) and any object with a
``query(text)`` method — a :class:`~repro.endpoint.LocalEndpoint` or
the latency- and fault-simulating
:class:`~repro.endpoint.RemoteEndpointSimulator`.  It implements the
three standard client-side defences:

* **per-query deadlines** — a virtual time budget per logical query;
  attempts and backoff waits consume it, and a reply that lands past
  the budget counts as a timeout (retried while budget remains);
* **retry with exponential backoff and full jitter** — capped
  geometric delays, each drawn uniformly from ``[0, cap]`` by a seeded
  RNG (the AWS "full jitter" scheme), honouring ``Retry-After`` floors
  from rate-limiting servers;
* **a circuit breaker** — after ``failure_threshold`` consecutive
  failed queries the circuit opens and requests fail fast with
  :class:`~repro.endpoint.errors.CircuitOpenError` (the request is not
  sent at all); once ``recovery_seconds`` of virtual time pass the
  circuit half-opens, exactly one probe goes through, and its outcome
  closes or re-opens the circuit.

Time is *virtual*: backoff waits and attempt costs are accounted (and
recorded in the extended :class:`~repro.endpoint.QueryStats`) without
sleeping, so chaos suites run at full speed.  Only
:class:`~repro.endpoint.errors.EndpointError` subclasses are retried —
a malformed query (parse error) is deterministic and propagates
immediately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.endpoint.endpoint import LocalEndpoint, QueryStats
from repro.endpoint.errors import (
    CircuitOpenError,
    EndpointError,
    EndpointRateLimited,
    EndpointTimeout,
)
from repro.rdf.overlay import ExtensionView
from repro.sparql.evaluator import QueryResult

_UNSET = object()


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter (seeded, virtual).

    ``max_attempts`` bounds the total tries per logical query (1 = no
    retries).  The k-th retry waits a uniform draw from
    ``[0, min(max_delay, base_delay * multiplier**k)]``; a rate-limited
    failure raises the floor of that draw to the server's
    ``retry_after``.
    """

    max_attempts: int = 4
    base_delay: float = 0.25
    multiplier: float = 2.0
    max_delay: float = 8.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Fail on the first error — typed exceptions surface directly."""
        return cls(max_attempts=1)

    def backoff(self, retry_index: int, rng: random.Random,
                floor: float = 0.0) -> float:
        """The wait before retry number ``retry_index`` (0-based)."""
        cap = min(self.max_delay, self.base_delay * self.multiplier ** retry_index)
        return max(rng.uniform(0.0, cap), floor)


@dataclass(frozen=True)
class CircuitBreakerPolicy:
    """When to open the circuit and how long to hold it open."""

    failure_threshold: int = 5
    recovery_seconds: float = 30.0


class CircuitBreaker:
    """A minimal half-open circuit breaker over a virtual clock."""

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, policy: CircuitBreakerPolicy):
        self.policy = policy
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = 0.0

    def allow(self, now: float) -> bool:
        """May a request go through at virtual time ``now``?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now - self.opened_at >= self.policy.recovery_seconds:
                self.state = self.HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: the probe is in flight

    def retry_in(self, now: float) -> float:
        if self.state != self.OPEN:
            return 0.0
        return max(0.0, self.policy.recovery_seconds - (now - self.opened_at))

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.failures = 0

    def record_failure(self, now: float) -> None:
        if self.state == self.HALF_OPEN:
            # The probe failed — snap straight back open.
            self.state = self.OPEN
            self.opened_at = now
            return
        self.failures += 1
        if self.failures >= self.policy.failure_threshold:
            self.state = self.OPEN
            self.opened_at = now


class ResilientEndpoint:
    """Retry/deadline/circuit-breaker front for any ``query()`` endpoint.

    One :class:`~repro.endpoint.QueryStats` entry is appended to
    :attr:`history` per *logical* query, aggregating every attempt:
    ``attempts``, total ``backoff_seconds`` and the final ``outcome``
    (``"ok"`` or the failure tag), so benchmarks can report the retry
    overhead directly from the stats stream.
    """

    def __init__(
        self,
        inner: LocalEndpoint,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
        breaker: Optional[CircuitBreakerPolicy] = _UNSET,
        seed: int = 0,
    ):
        self.inner = inner
        self.retry = retry or RetryPolicy()
        self.timeout = timeout
        if breaker is _UNSET:
            breaker = CircuitBreakerPolicy()
        self.breaker = CircuitBreaker(breaker) if breaker is not None else None
        self._rng = random.Random(seed)
        self.history: List[QueryStats] = []
        self.clock = 0.0  # virtual seconds consumed through this wrapper

    @property
    def last(self) -> Optional[QueryStats]:
        return self.history[-1] if self.history else None

    def advance(self, seconds: float) -> None:
        """Advance the virtual clock without issuing a query.

        Interactive consumers call this with the user's think time
        between requests — it is what lets an *open* circuit reach its
        recovery window and half-open in a no-sleep simulation.
        """
        if seconds > 0.0:
            self.clock += seconds

    # ------------------------------------------------------------------
    def query(self, text: str, timeout: Optional[float] = _UNSET,
              overlay: Optional[ExtensionView] = None) -> QueryResult:
        """Run one logical query through deadline/retry/breaker.

        ``timeout`` overrides the endpoint-wide deadline for this query
        (``None`` disables it); ``overlay`` is handed to the inner
        endpoint on every attempt.  Raises the last typed
        :class:`EndpointError` once attempts or budget are exhausted,
        or :class:`CircuitOpenError` without touching the wire when the
        circuit is open.
        """
        budget = self.timeout if timeout is _UNSET else timeout
        if self.breaker is not None and not self.breaker.allow(self.clock):
            wait = self.breaker.retry_in(self.clock)
            self.history.append(
                QueryStats(0.0, 0.0, 0, attempts=0, outcome="circuit_open"))
            raise CircuitOpenError(
                f"circuit open; retry in {wait:.1f}s", retry_in=wait)

        used = 0.0          # virtual seconds consumed by this logical query
        backoff_total = 0.0
        engine_total = 0.0
        network_total = 0.0
        attempts = 0
        error: Optional[EndpointError] = None

        while attempts < self.retry.max_attempts:
            attempts += 1
            try:
                result = self.inner.query(text, overlay=overlay)
            except EndpointError as exc:
                error = exc
                elapsed = exc.elapsed
                stats = getattr(self.inner, "last", None)
                if stats is not None and stats.outcome == exc.outcome:
                    engine_total += stats.engine_seconds
                    network_total += stats.network_seconds
            else:
                stats = getattr(self.inner, "last", None)
                elapsed = stats.total_seconds if stats is not None else 0.0
                if budget is not None and used + elapsed > budget:
                    # The reply landed past the deadline: the client has
                    # already hung up, so this attempt is a timeout.
                    error = EndpointTimeout(
                        f"deadline of {budget:.2f}s exceeded "
                        f"after {used + elapsed:.2f}s",
                        deadline=budget, elapsed=elapsed)
                    if stats is not None:
                        engine_total += stats.engine_seconds
                        network_total += stats.network_seconds
                else:
                    if stats is not None:
                        engine_total += stats.engine_seconds
                        network_total += stats.network_seconds
                    used += elapsed
                    self.clock += elapsed
                    if self.breaker is not None:
                        self.breaker.record_success()
                    self.history.append(QueryStats(
                        engine_total, network_total,
                        stats.rows if stats is not None else 0,
                        attempts=attempts, backoff_seconds=backoff_total,
                        outcome="ok"))
                    return result

            used += elapsed
            self.clock += elapsed
            if self.breaker is not None:
                self.breaker.record_failure(self.clock)
                if self.breaker.state != CircuitBreaker.CLOSED:
                    break  # circuit opened under us — stop hammering

            out_of_budget = budget is not None and used >= budget
            if attempts >= self.retry.max_attempts or out_of_budget:
                break
            floor = (error.retry_after
                     if isinstance(error, EndpointRateLimited) else 0.0)
            delay = self.retry.backoff(attempts - 1, self._rng, floor=floor)
            if budget is not None:
                delay = min(delay, max(0.0, budget - used))
            backoff_total += delay
            used += delay
            self.clock += delay

        if budget is not None and used >= budget and not isinstance(
                error, EndpointTimeout):
            error = EndpointTimeout(
                f"deadline of {budget:.2f}s exhausted after "
                f"{attempts} attempt(s)", deadline=budget,
                elapsed=used, attempts=attempts)
        assert error is not None
        error.attempts = attempts
        self.history.append(QueryStats(
            engine_total, network_total, 0, attempts=attempts,
            backoff_seconds=backoff_total, outcome=error.outcome))
        raise error

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Aggregate resilience counters for dashboards and the CLI."""
        queries = len(self.history)
        retries = sum(max(0, s.attempts - 1) for s in self.history)
        failures = sum(1 for s in self.history if not s.ok)
        return {
            "queries": queries,
            "retries": retries,
            "failures": failures,
            "backoff_seconds": sum(s.backoff_seconds for s in self.history),
            "virtual_seconds": self.clock,
            "circuit_state": self.breaker.state if self.breaker else "disabled",
            "outcomes": {
                outcome: sum(1 for s in self.history if s.outcome == outcome)
                for outcome in sorted({s.outcome for s in self.history})
            },
        }


__all__ = [
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "ResilientEndpoint",
    "RetryPolicy",
]
