"""Seeded fault injection for the simulated remote endpoint.

The latency model of :class:`repro.endpoint.NetworkModel` reproduces how
*slow* a live SPARQL endpoint is; this module reproduces how *unreliable*
it is.  A :class:`FaultModel` assigns a probability to each of the four
characteristic failure modes of public endpoints — hangs past any
deadline, transient 5xx errors, rate-limiter rejections, and results cut
off mid-transfer — and :class:`FlakyEndpointSimulator` draws from it on
every request with a dedicated seeded RNG, so a chaos run is exactly
reproducible: same seed + same workload ⇒ same fault sequence and the
same :class:`~repro.endpoint.QueryStats` history.

Failures are raised as the typed errors of
:mod:`repro.endpoint.errors`; every failed request is also recorded in
the endpoint's history with its ``outcome`` tag, so benchmarks can
report fault rates straight from the stats stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.rdf.graph import Graph
from repro.rdf.overlay import ExtensionView
from repro.endpoint.endpoint import (
    NetworkModel,
    QueryStats,
    RemoteEndpointSimulator,
    result_rows,
)
from repro.endpoint.errors import (
    EndpointRateLimited,
    EndpointTimeout,
    EndpointTruncated,
    EndpointUnavailable,
)
from repro.sparql.evaluator import QueryResult
from repro.sparql.results import SelectResult

#: Mixed into the endpoint seed so the fault stream is independent of the
#: latency stream (injecting a fault must not shift subsequent latencies).
_FAULT_SEED_SALT = 0x9E3779B9


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


class FlakyEndpointSimulator(RemoteEndpointSimulator):
    """A remote endpoint that is slow *and* unreliable.

    Extends :class:`RemoteEndpointSimulator` with seeded fault injection:
    before each request one fault decision is drawn from ``faults``; the
    injected failure is raised as the matching typed error and recorded
    in :attr:`history` with its ``outcome`` tag.  The fault RNG is
    separate from the latency RNG so both streams stay reproducible
    independently; :attr:`injected` keeps the per-request decision
    sequence (``"ok"`` or a fault tag) for assertions and reports.
    """

    def __init__(
        self,
        graph: Graph,
        model: Optional[NetworkModel] = None,
        faults: Optional[FaultModel] = None,
        seed: int = 0,
    ):
        super().__init__(graph, model or NetworkModel.offpeak(), seed=seed)
        self.faults = faults or FaultModel.none()
        self._fault_rng = random.Random(seed ^ _FAULT_SEED_SALT)
        self.injected: List[str] = []

    def query(self, text: str,
              overlay: Optional[ExtensionView] = None) -> QueryResult:
        kind = self.faults.draw(self._fault_rng)
        self.injected.append(kind or "ok")
        if kind is None:
            return super().query(text, overlay=overlay)
        if kind == "timeout":
            stall = self.faults.timeout_stall
            self.history.append(QueryStats(0.0, stall, 0, outcome="timeout"))
            raise EndpointTimeout(
                f"request stalled for {stall:.1f}s (injected)",
                deadline=stall, elapsed=stall,
            )
        if kind == "unavailable":
            # A failed round trip still costs one network exchange.
            network = self.model.sample(self._rng, 0)
            self.history.append(
                QueryStats(0.0, network, 0, outcome="unavailable"))
            raise EndpointUnavailable(
                "503 service unavailable (injected)", elapsed=network)
        if kind == "rate_limited":
            network = self.model.sample(self._rng, 0)
            self.history.append(
                QueryStats(0.0, network, 0, outcome="rate_limited"))
            raise EndpointRateLimited(
                "429 too many requests (injected)",
                retry_after=self.faults.retry_after, elapsed=network)
        # "truncated": the query runs, but the transfer dies part-way.
        result, engine = self._evaluate(text, overlay)
        partial = self._truncate(result)
        kept = result_rows(partial) if partial is not None else 0
        network = self.model.sample(self._rng, kept)
        self.history.append(
            QueryStats(engine, network, kept, outcome="truncated"))
        raise EndpointTruncated(
            f"result truncated after {kept} row(s) (injected)",
            partial=partial, elapsed=engine + network,
        )

    def _truncate(self, result):
        """Cut a result the way a dropped connection would."""
        if isinstance(result, SelectResult):
            keep = int(len(result) * self.faults.truncate_keep)
            return SelectResult(result.variables, result.rows[:keep])
        if isinstance(result, Graph):
            keep = int(len(result) * self.faults.truncate_keep)
            out = Graph()
            for index, triple in enumerate(result):
                if index >= keep:
                    break
                out.add(*triple)
            return out
        return None  # an ASK either arrives whole or not at all


__all__ = ["FaultModel", "FlakyEndpointSimulator"]
