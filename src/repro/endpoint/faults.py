"""Seeded fault injection for the simulated remote endpoint.

The latency model of :class:`repro.endpoint.NetworkModel` reproduces how
*slow* a live SPARQL endpoint is; this module reproduces how *unreliable*
it is.  A :class:`FaultModel` assigns a probability to each of the four
characteristic failure modes of public endpoints — hangs past any
deadline, transient 5xx errors, rate-limiter rejections, and results cut
off mid-transfer — and :class:`~repro.endpoint.RemoteEndpointSimulator`
draws from it on every request with a dedicated seeded RNG, so a chaos
run is exactly reproducible: same seed + same workload ⇒ same fault sequence and the
same :class:`~repro.endpoint.QueryStats` history.

Failures are raised as the typed errors of
:mod:`repro.endpoint.errors`; every failed request is also recorded in
the endpoint's history with its ``outcome`` tag, so benchmarks can
report fault rates straight from the stats stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

@dataclass(frozen=True)
class FaultModel:
    """Per-request failure probabilities plus their shape parameters.

    The four rates are independent slices of the unit interval (their
    sum must be ≤ 1); the remainder is the probability of a clean
    response.  ``timeout_stall`` is the virtual time a hanging request
    burns before the client gives up on it, ``retry_after`` the wait a
    rate-limiting server suggests, and ``truncate_keep`` the fraction of
    rows that survive a mid-transfer cut.
    """

    timeout_rate: float = 0.0
    error_rate: float = 0.0
    rate_limit_rate: float = 0.0
    truncate_rate: float = 0.0
    timeout_stall: float = 30.0
    retry_after: float = 1.0
    truncate_keep: float = 0.5

    def __post_init__(self):
        for name in ("timeout_rate", "error_rate", "rate_limit_rate",
                     "truncate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.total_rate > 1.0 + 1e-9:
            raise ValueError(
                f"fault rates sum to {self.total_rate:.3f} > 1"
            )

    @property
    def total_rate(self) -> float:
        return (self.timeout_rate + self.error_rate + self.rate_limit_rate
                + self.truncate_rate)

    @classmethod
    def none(cls) -> "FaultModel":
        """A perfectly reliable endpoint (every rate zero)."""
        return cls()

    @classmethod
    def uniform(cls, rate: float, **kwargs: float) -> "FaultModel":
        """An overall fault probability split evenly over the four modes."""
        share = rate / 4.0
        return cls(timeout_rate=share, error_rate=share,
                   rate_limit_rate=share, truncate_rate=share, **kwargs)

    @classmethod
    def public_endpoint(cls) -> "FaultModel":
        """A mildly hostile public endpoint: mostly 5xx and throttling."""
        return cls(timeout_rate=0.02, error_rate=0.05, rate_limit_rate=0.03,
                   truncate_rate=0.01, timeout_stall=20.0, retry_after=2.0)

    def draw(self, rng: random.Random) -> Optional[str]:
        """One seeded fault decision: a mode tag, or None for a clean call."""
        total = self.total_rate
        if total <= 0.0:
            return None
        roll = rng.random()
        edge = self.timeout_rate
        if roll < edge:
            return "timeout"
        edge += self.error_rate
        if roll < edge:
            return "unavailable"
        edge += self.rate_limit_rate
        if roll < edge:
            return "rate_limited"
        edge += self.truncate_rate
        if roll < edge:
            return "truncated"
        return None


__all__ = ["FaultModel"]
