"""Local and simulated (latency, load, faults) SPARQL endpoints (§6.4
substrate)."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.endpoint.errors import (
    EndpointRateLimited,
    EndpointTimeout,
    EndpointTruncated,
    EndpointUnavailable,
)
from repro.endpoint.faults import FaultModel
from repro.rdf.graph import Graph
from repro.rdf.overlay import ExtensionView
from repro.sparql import query as sparql_query
from repro.sparql.evaluator import QueryResult
from repro.sparql.results import SelectResult


@dataclass(frozen=True)
class QueryStats:
    """Timing breakdown of one endpoint request (seconds).

    ``network_seconds`` is zero for local endpoints; for the simulator it
    is *virtual* time (sampled, never slept).

    The resilience fields describe how the request was served:
    ``attempts`` counts the tries a retrying wrapper made (1 for raw
    endpoints), ``backoff_seconds`` is the total (virtual) wait spent
    between retries, and ``outcome`` tags how the request ended —
    ``"ok"`` or one of the failure tags of
    :mod:`repro.endpoint.errors` (``"timeout"``, ``"unavailable"``,
    ``"rate_limited"``, ``"truncated"``, ``"circuit_open"``).
    """

    engine_seconds: float
    network_seconds: float
    rows: int
    attempts: int = 1
    backoff_seconds: float = 0.0
    outcome: str = "ok"

    @property
    def total_seconds(self) -> float:
        return self.engine_seconds + self.network_seconds + self.backoff_seconds

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


def result_rows(result) -> int:
    """The transferred-row count of *any* query form.

    SELECT answers report their row count, CONSTRUCT answers the number
    of produced triples, and an ASK answer is one boolean row — so the
    ``per_row`` term of the latency model never silently drops out.
    """
    if isinstance(result, SelectResult):
        return len(result)
    if isinstance(result, bool):
        return 1
    if isinstance(result, Graph):
        return len(result)
    try:
        return len(result)
    except TypeError:
        return 0


class LocalEndpoint:
    """A SPARQL endpoint over an in-process graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.history: List[QueryStats] = []

    def query(self, text: str,
              overlay: Optional[ExtensionView] = None) -> QueryResult:
        """Evaluate a query; timing is recorded in :attr:`history`.

        ``overlay`` — a read-only view of the endpoint's graph
        (:class:`repro.rdf.overlay.ExtensionView`) — is evaluated in
        the graph's place: the session-private extension a query rooted
        at ``rdf:type :temp`` ranges over.  Every endpoint of this
        package forwards it unchanged.
        """
        result, elapsed = self._evaluate(text, overlay)
        self.history.append(QueryStats(elapsed, 0.0, result_rows(result)))
        return result

    def _evaluate(self, text: str, overlay: Optional[ExtensionView]
                  ) -> Tuple[QueryResult, float]:
        """``(result, engine seconds)`` of one in-process evaluation."""
        started = time.perf_counter()
        result = sparql_query(self.graph if overlay is None else overlay, text)
        return result, time.perf_counter() - started

    @property
    def last(self) -> Optional[QueryStats]:
        return self.history[-1] if self.history else None


@dataclass(frozen=True)
class NetworkModel:
    """A per-request latency model with lognormal jitter.

    ``total = base_latency * lognormal(sigma) * load + per_row * rows``

    The peak/off-peak presets are calibrated so that peak-hour requests
    are a few times slower and noticeably more variable — the qualitative
    difference between Tables 6.1 and 6.2.
    """

    name: str
    base_latency: float  # seconds, median round-trip under no load
    sigma: float         # lognormal scale (jitter)
    load: float          # multiplicative server-load factor
    per_row: float       # seconds per transferred result row

    @classmethod
    def peak(cls) -> "NetworkModel":
        return cls(name="peak", base_latency=0.180, sigma=0.55, load=2.4,
                   per_row=0.0009)

    @classmethod
    def offpeak(cls) -> "NetworkModel":
        return cls(name="offpeak", base_latency=0.120, sigma=0.25, load=1.0,
                   per_row=0.0004)

    def sample(self, rng: random.Random, rows: int) -> float:
        jitter = rng.lognormvariate(0.0, self.sigma)
        return self.base_latency * jitter * self.load + self.per_row * rows


#: Mixed into the endpoint seed so the fault stream is independent of the
#: latency stream (injecting a fault must not shift subsequent latencies).
_FAULT_SEED_SALT = 0x9E3779B9


class RemoteEndpointSimulator(LocalEndpoint):
    """A remote SPARQL endpoint: local engine + simulated network, load
    and faults.

    Every request samples its network time from ``model`` (off-peak when
    None) as virtual time.  Before each request one fault decision is
    drawn from ``faults`` (none when None): an injected failure is
    raised as the matching typed error of :mod:`repro.endpoint.errors`
    and recorded in :attr:`history` with its ``outcome`` tag.  The fault
    RNG is separate from the latency RNG, so injecting a fault never
    shifts a later latency, and a draw with every rate zero consumes no
    random number.
    """

    def __init__(
        self,
        graph: Graph,
        model: Optional[NetworkModel] = None,
        faults: Optional[FaultModel] = None,
        seed: int = 0,
    ):
        super().__init__(graph)
        self.model = model or NetworkModel.offpeak()
        self.faults = faults or FaultModel.none()
        self._rng = random.Random(seed)
        self._fault_rng = random.Random(seed ^ _FAULT_SEED_SALT)

    def query(self, text: str,
              overlay: Optional[ExtensionView] = None) -> QueryResult:
        kind = self.faults.draw(self._fault_rng)
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
        result, engine = self._evaluate(text, overlay)
        if kind is None:
            rows = result_rows(result)
            network = self.model.sample(self._rng, rows)
            self.history.append(QueryStats(engine, network, rows))
            return result
        # "truncated": the query runs, but the transfer dies part-way.
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
