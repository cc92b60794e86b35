"""SPARQL endpoints: local evaluation, a simulated remote endpoint, and
the resilience substrate in front of them.

The dissertation's efficiency study (§6.4, Tables 6.1/6.2) measures
end-to-end query times against a live SPARQL endpoint at *peak* and
*off-peak* hours.  We have no network, so :class:`RemoteEndpointSimulator`
wraps the local engine in a calibrated network/load model
(:class:`NetworkModel`): per-request latency is sampled from a seeded
log-normal whose location/scale differ between the two regimes, plus a
per-result-row transfer cost.  The *shape* of the paper's tables —
peak > off-peak, growth with query complexity and result size —
comes from the same mechanism that produced it on the real testbed.

Live endpoints are not just slow, they *fail* — so the same substrate
also models unreliability: given a :class:`FaultModel`, the same
:class:`RemoteEndpointSimulator` injects seeded timeouts, transient 5xx
errors, rate-limit rejections and truncated results (raised as the
typed errors of :mod:`repro.endpoint.errors`), and
:class:`ResilientEndpoint` is the client-side defence: per-query
deadlines, retry with exponential backoff + full jitter, and a
half-open circuit breaker — all accounted in virtual time and recorded
per logical query in the extended :class:`QueryStats`.
"""

from repro.endpoint.endpoint import (
    LocalEndpoint,
    NetworkModel,
    QueryStats,
    RemoteEndpointSimulator,
    result_rows,
)
from repro.endpoint.errors import (
    CircuitOpenError,
    EndpointError,
    EndpointRateLimited,
    EndpointTimeout,
    EndpointTruncated,
    EndpointUnavailable,
)
from repro.endpoint.faults import FaultModel
from repro.endpoint.resilient import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    ResilientEndpoint,
    RetryPolicy,
)

__all__ = [
    "LocalEndpoint",
    "NetworkModel",
    "QueryStats",
    "RemoteEndpointSimulator",
    "result_rows",
    "EndpointError",
    "EndpointTimeout",
    "EndpointUnavailable",
    "EndpointRateLimited",
    "EndpointTruncated",
    "CircuitOpenError",
    "FaultModel",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "ResilientEndpoint",
    "RetryPolicy",
]
