"""Unit tests of the endpoint resilience layer.

Covers the typed error hierarchy, the extended QueryStats, ASK/CONSTRUCT
row accounting, the seeded fault model, the flaky simulator's
determinism, and the ResilientEndpoint wrapper (deadlines, retry with
full-jitter backoff, half-open circuit breaker).
"""

import random

import pytest

from repro.datasets import products_graph
from repro.endpoint import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    CircuitOpenError,
    EndpointError,
    EndpointRateLimited,
    EndpointTimeout,
    EndpointTruncated,
    EndpointUnavailable,
    FaultModel,
    LocalEndpoint,
    NetworkModel,
    QueryStats,
    RemoteEndpointSimulator,
    ResilientEndpoint,
    RetryPolicy,
    result_rows,
)
from repro.sparql.results import SelectResult

SELECT = "SELECT ?s WHERE { ?s a ex:Laptop }"
ASK = "ASK { ?s a ex:Laptop }"
CONSTRUCT = "CONSTRUCT { ?s a ex:Product } WHERE { ?s a ex:Laptop }"


class ScriptedEndpoint:
    """A test double replaying a scripted sequence of outcomes.

    Script items: an exception instance (raised, recorded with its
    outcome tag), a float (success with that virtual latency), or
    ``"ok"`` (success, zero latency).  An exhausted script keeps
    succeeding.
    """

    def __init__(self, script=(), rows=7):
        self.script = list(script)
        self.rows = rows
        self.calls = 0
        self.history = []
        self.graph = None

    @property
    def last(self):
        return self.history[-1] if self.history else None

    def query(self, text, overlay=None):
        self.calls += 1
        item = self.script.pop(0) if self.script else "ok"
        if isinstance(item, Exception):
            outcome = getattr(item, "outcome", "error")
            self.history.append(
                QueryStats(0.0, getattr(item, "elapsed", 0.0), 0,
                           outcome=outcome))
            raise item
        latency = item if isinstance(item, float) else 0.0
        self.history.append(QueryStats(0.0, latency, self.rows))
        return "RESULT"


class TestErrorHierarchy:
    def test_all_failures_are_endpoint_errors(self):
        for exc_type in (EndpointTimeout, EndpointUnavailable,
                         EndpointRateLimited, EndpointTruncated,
                         CircuitOpenError):
            assert issubclass(exc_type, EndpointError)
            assert issubclass(exc_type, RuntimeError)

    def test_outcome_tags_are_distinct(self):
        tags = {exc.outcome for exc in (
            EndpointTimeout, EndpointUnavailable, EndpointRateLimited,
            EndpointTruncated, CircuitOpenError)}
        assert len(tags) == 5

    def test_errors_carry_accounting(self):
        exc = EndpointRateLimited("429", retry_after=3.5, elapsed=0.2)
        assert exc.retry_after == 3.5
        assert exc.elapsed == 0.2
        assert exc.attempts == 1


class TestQueryStatsExtension:
    def test_positional_construction_stays_compatible(self):
        stats = QueryStats(0.5, 0.25, 3)
        assert stats.attempts == 1
        assert stats.backoff_seconds == 0.0
        assert stats.outcome == "ok"
        assert stats.ok

    def test_total_includes_backoff(self):
        stats = QueryStats(0.5, 0.25, 3, attempts=3, backoff_seconds=1.0,
                           outcome="ok")
        assert stats.total_seconds == pytest.approx(1.75)

    def test_failed_stats_are_not_ok(self):
        assert not QueryStats(0.0, 0.0, 0, outcome="timeout").ok


class TestRowAccounting:
    """Satellite: ASK/CONSTRUCT results must report transferred rows."""

    def test_local_ask_counts_one_row(self):
        ep = LocalEndpoint(products_graph())
        assert ep.query(ASK) is True
        assert ep.last.rows == 1

    def test_local_construct_counts_triples(self):
        ep = LocalEndpoint(products_graph())
        produced = ep.query(CONSTRUCT)
        assert len(produced) == 3
        assert ep.last.rows == 3

    def test_simulator_charges_per_row_transfer_for_construct(self):
        flat = NetworkModel("flat", base_latency=0.0, sigma=0.0, load=1.0,
                            per_row=0.001)
        ep = RemoteEndpointSimulator(products_graph(), flat, seed=0)
        ep.query(CONSTRUCT)
        assert ep.last.network_seconds == pytest.approx(0.003)
        ep.query(ASK)
        assert ep.last.network_seconds == pytest.approx(0.001)

    def test_result_rows_helper(self):
        assert result_rows(True) == 1
        assert result_rows(False) == 1
        assert result_rows(SelectResult(("x",), [])) == 0
        assert result_rows(object()) == 0


class TestFaultModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultModel(timeout_rate=1.5)
        with pytest.raises(ValueError):
            FaultModel(timeout_rate=0.5, error_rate=0.6)

    def test_none_never_faults(self):
        model = FaultModel.none()
        rng = random.Random(0)
        assert all(model.draw(rng) is None for _ in range(100))

    def test_uniform_splits_total_rate(self):
        model = FaultModel.uniform(0.4)
        assert model.total_rate == pytest.approx(0.4)
        rng = random.Random(1)
        draws = [model.draw(rng) for _ in range(8000)]
        rate = sum(d is not None for d in draws) / len(draws)
        assert 0.35 < rate < 0.45
        assert {"timeout", "unavailable", "rate_limited", "truncated"} <= set(
            d for d in draws if d)

    def test_draw_is_seeded(self):
        model = FaultModel.uniform(0.5)
        a = [model.draw(random.Random(7)) for _ in range(1)]
        b = [model.draw(random.Random(7)) for _ in range(1)]
        assert a == b


#: The ``(network seconds, rows, outcome)`` history of twelve requests
#: cycling over PINNED_QUERIES at seed 5, off-peak — as the simulator
#: recorded it before faults and latency were one class.
PINNED_QUERIES = ("SELECT ?s ?p ?o WHERE { ?s ?p ?o }", "ASK { ?s ?p ?o }",
                  SELECT)
PINNED_CLEAN = [
    (0.19037564845970623, 108, 'ok'),
    (0.0826266574404938, 1, 'ok'),
    (0.11910563061526933, 3, 'ok'),
    (0.1686042561381771, 108, 'ok'),
    (0.13782801946747328, 1, 'ok'),
    (0.1403380832247389, 3, 'ok'),
    (0.17032529881040082, 108, 'ok'),
    (0.10277647173240437, 1, 'ok'),
    (0.12763233029493382, 3, 'ok'),
    (0.1958757017002114, 108, 'ok'),
    (0.11213308454227676, 1, 'ok'),
    (0.09801859596878573, 3, 'ok'),
]
PINNED_UNIFORM_03 = [
    (0.1471756484597062, 0, 'rate_limited'),
    (0.0826266574404938, 1, 'ok'),
    (0.11910563061526933, 3, 'ok'),
    (0.1686042561381771, 108, 'ok'),
    (30.0, 0, 'timeout'),
    (0.13862801946747327, 3, 'ok'),
    (0.18233808322473888, 108, 'ok'),
    (0.1275252988104008, 1, 'ok'),
    (0.10357647173240438, 3, 'ok'),
    (0.14803233029493382, 54, 'truncated'),
    (0.1530757017002114, 1, 'ok'),
    (0.11293308454227677, 3, 'ok'),
]


def run_workload(endpoint, n=40):
    """Issue n queries, collecting (exception-type, outcome) per call."""
    outcomes = []
    for _ in range(n):
        try:
            endpoint.query(SELECT)
            outcomes.append("ok")
        except EndpointError as exc:
            outcomes.append(type(exc).__name__)
    return outcomes


class TestFlakySimulator:
    def make(self, seed=3, rate=0.5):
        return RemoteEndpointSimulator(
            products_graph(), NetworkModel.offpeak(),
            FaultModel.uniform(rate), seed=seed)

    def test_injects_typed_errors(self):
        ep = self.make()
        outcomes = set(run_workload(ep, 80))
        assert "ok" in outcomes
        assert outcomes & {"EndpointTimeout", "EndpointUnavailable",
                           "EndpointRateLimited", "EndpointTruncated"}

    def test_every_request_recorded_with_outcome(self):
        ep = self.make()
        raised = run_workload(ep, 50)
        tags = {"ok": "ok", "EndpointTimeout": "timeout",
                "EndpointUnavailable": "unavailable",
                "EndpointRateLimited": "rate_limited",
                "EndpointTruncated": "truncated"}
        assert [s.outcome for s in ep.history] == [tags[r] for r in raised]

    def test_seeded_determinism(self):
        """Satellite: same seed + workload ⇒ identical fault sequence and
        identical QueryStats histories (modulo wall-clock engine time)."""
        a, b = self.make(seed=11), self.make(seed=11)
        assert run_workload(a) == run_workload(b)
        key = lambda s: (s.network_seconds, s.rows, s.attempts,
                         s.backoff_seconds, s.outcome)
        assert [key(s) for s in a.history] == [key(s) for s in b.history]

    def test_different_seeds_differ(self):
        a, b = self.make(seed=1), self.make(seed=2)
        run_workload(a), run_workload(b)
        assert [s.outcome for s in a.history] != [s.outcome for s in b.history]

    def test_fault_stream_independent_of_latency_stream(self):
        """Injecting faults must not shift the latency samples of the
        successful requests (separate RNGs)."""
        clean = RemoteEndpointSimulator(
            products_graph(), NetworkModel.offpeak(), seed=5)
        flaky = RemoteEndpointSimulator(
            products_graph(), NetworkModel.offpeak(),
            FaultModel(timeout_rate=0.3), seed=5)
        clean_latencies = [clean.query(SELECT) and clean.last.network_seconds
                           for _ in range(20)]
        flaky_latencies = []
        while len(flaky_latencies) < 20:
            try:
                flaky.query(SELECT)
                flaky_latencies.append(flaky.last.network_seconds)
            except EndpointError:
                pass
        assert flaky_latencies == clean_latencies

    @pytest.mark.parametrize("faults, expected", [
        (None, PINNED_CLEAN),
        (FaultModel.uniform(0.3), PINNED_UNIFORM_03),
    ])
    def test_history_pinned_at_a_seed(self, faults, expected):
        """Without faults the history is the latency stream alone; with
        them, the same fault and latency streams as before."""
        ep = RemoteEndpointSimulator(products_graph(), faults=faults, seed=5)
        for i in range(len(expected)):
            try:
                ep.query(PINNED_QUERIES[i % 3])
            except EndpointError:
                pass
        assert [(s.network_seconds, s.rows, s.outcome)
                for s in ep.history] == expected

    def test_defaults_are_off_peak_and_fault_free(self):
        ep = RemoteEndpointSimulator(products_graph())
        assert ep.model == NetworkModel.offpeak()
        assert ep.faults == FaultModel.none()
        assert run_workload(ep, 5) == ["ok"] * 5
        assert len(ep.history) == 5
        assert all(s.ok and s.network_seconds > 0 for s in ep.history)

    def test_truncated_carries_partial_result(self):
        ep = RemoteEndpointSimulator(
            products_graph(), NetworkModel.offpeak(),
            FaultModel(truncate_rate=1.0, truncate_keep=0.5), seed=0)
        with pytest.raises(EndpointTruncated) as info:
            ep.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
        partial = info.value.partial
        assert isinstance(partial, SelectResult)
        assert len(partial) == 54  # half of the 108 triples
        assert ep.last.outcome == "truncated"


class TestRetry:
    def test_transient_failures_are_absorbed(self):
        inner = ScriptedEndpoint([
            EndpointUnavailable("503", elapsed=0.1),
            EndpointUnavailable("503", elapsed=0.1),
            "ok",
        ])
        wrapper = ResilientEndpoint(inner, RetryPolicy(max_attempts=4), seed=1)
        assert wrapper.query(SELECT) == "RESULT"
        stats = wrapper.last
        assert stats.outcome == "ok"
        assert stats.attempts == 3
        assert stats.backoff_seconds > 0.0
        assert inner.calls == 3
        assert len(wrapper.history) == 1  # one logical query

    def test_no_retries_surfaces_first_error(self):
        inner = ScriptedEndpoint([EndpointUnavailable("503")])
        wrapper = ResilientEndpoint(inner, RetryPolicy.none(), breaker=None)
        with pytest.raises(EndpointUnavailable):
            wrapper.query(SELECT)
        assert inner.calls == 1
        assert wrapper.last.attempts == 1
        assert wrapper.last.outcome == "unavailable"

    def test_exhausted_retries_raise_last_typed_error(self):
        inner = ScriptedEndpoint([EndpointUnavailable("503")] * 10)
        wrapper = ResilientEndpoint(
            inner, RetryPolicy(max_attempts=3), breaker=None, seed=2)
        with pytest.raises(EndpointUnavailable) as info:
            wrapper.query(SELECT)
        assert info.value.attempts == 3
        assert inner.calls == 3

    def test_full_jitter_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=4.0)
        rng_a, rng_b = random.Random(9), random.Random(9)
        delays_a = [policy.backoff(i, rng_a) for i in range(6)]
        delays_b = [policy.backoff(i, rng_b) for i in range(6)]
        assert delays_a == delays_b
        for i, delay in enumerate(delays_a):
            assert 0.0 <= delay <= min(4.0, 1.0 * 2.0 ** i)

    def test_rate_limit_floor_respected(self):
        inner = ScriptedEndpoint([
            EndpointRateLimited("429", retry_after=5.0), "ok"])
        wrapper = ResilientEndpoint(
            inner, RetryPolicy(max_attempts=2, base_delay=0.01), seed=0)
        wrapper.query(SELECT)
        assert wrapper.last.backoff_seconds >= 5.0

    def test_non_endpoint_errors_not_retried(self):
        class Exploding:
            graph = None
            history = []
            last = None

            def __init__(self):
                self.calls = 0

            def query(self, text, overlay=None):
                self.calls += 1
                raise ValueError("malformed query")

        inner = Exploding()
        wrapper = ResilientEndpoint(inner, RetryPolicy(max_attempts=5))
        with pytest.raises(ValueError):
            wrapper.query(SELECT)
        assert inner.calls == 1


class TestDeadline:
    def test_late_reply_is_a_timeout(self):
        inner = ScriptedEndpoint([10.0] * 5)  # replies take 10 virtual seconds
        wrapper = ResilientEndpoint(
            inner, RetryPolicy(max_attempts=3), timeout=5.0, breaker=None)
        with pytest.raises(EndpointTimeout):
            wrapper.query(SELECT)
        assert wrapper.last.outcome == "timeout"

    def test_budget_spans_retries(self):
        inner = ScriptedEndpoint([
            EndpointUnavailable("503", elapsed=2.0), 1.0])
        wrapper = ResilientEndpoint(
            inner, RetryPolicy(max_attempts=4, base_delay=0.1),
            timeout=60.0, seed=3)
        assert wrapper.query(SELECT) == "RESULT"
        assert wrapper.last.attempts == 2

    def test_per_query_override_disables_deadline(self):
        inner = ScriptedEndpoint([10.0])
        wrapper = ResilientEndpoint(inner, timeout=5.0, breaker=None)
        assert wrapper.query(SELECT, timeout=None) == "RESULT"

    def test_injected_stall_consumes_budget(self):
        ep = RemoteEndpointSimulator(
            products_graph(), NetworkModel.offpeak(),
            FaultModel(timeout_rate=1.0, timeout_stall=30.0), seed=0)
        wrapper = ResilientEndpoint(
            ep, RetryPolicy(max_attempts=10), timeout=45.0, breaker=None)
        with pytest.raises(EndpointTimeout):
            wrapper.query(SELECT)
        # 45s budget fits one 30s stall but not two.
        assert wrapper.last.attempts <= 2


class TestCircuitBreaker:
    POLICY = CircuitBreakerPolicy(failure_threshold=2, recovery_seconds=30.0)

    def make(self, script):
        inner = ScriptedEndpoint(script)
        wrapper = ResilientEndpoint(
            inner, RetryPolicy.none(), breaker=self.POLICY, seed=0)
        return inner, wrapper

    def test_opens_after_threshold_and_fails_fast(self):
        inner, wrapper = self.make([EndpointUnavailable("503")] * 2)
        for _ in range(2):
            with pytest.raises(EndpointUnavailable):
                wrapper.query(SELECT)
        assert wrapper.breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            wrapper.query(SELECT)
        assert inner.calls == 2  # the fast-fail never reached the wire
        assert wrapper.last.outcome == "circuit_open"
        assert wrapper.last.attempts == 0

    def test_half_open_probe_closes_on_success(self):
        inner, wrapper = self.make([EndpointUnavailable("503")] * 2 + ["ok"])
        for _ in range(2):
            with pytest.raises(EndpointUnavailable):
                wrapper.query(SELECT)
        wrapper.advance(31.0)  # virtual recovery window passes
        assert wrapper.query(SELECT) == "RESULT"  # the half-open probe
        assert wrapper.breaker.state == CircuitBreaker.CLOSED
        assert wrapper.query(SELECT) == "RESULT"

    def test_half_open_probe_failure_reopens(self):
        inner, wrapper = self.make([EndpointUnavailable("503")] * 3)
        for _ in range(2):
            with pytest.raises(EndpointUnavailable):
                wrapper.query(SELECT)
        wrapper.advance(31.0)
        with pytest.raises(EndpointUnavailable):
            wrapper.query(SELECT)  # probe goes through and fails
        assert wrapper.breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            wrapper.query(SELECT)
        assert inner.calls == 3

    def test_circuit_open_error_reports_retry_in(self):
        _, wrapper = self.make([EndpointUnavailable("503")] * 2)
        for _ in range(2):
            with pytest.raises(EndpointUnavailable):
                wrapper.query(SELECT)
        wrapper.advance(10.0)
        with pytest.raises(CircuitOpenError) as info:
            wrapper.query(SELECT)
        assert 0.0 < info.value.retry_in <= 30.0


class TestReport:
    def test_report_aggregates_outcomes(self):
        inner = ScriptedEndpoint([
            "ok", EndpointUnavailable("503"), "ok", "ok"])
        wrapper = ResilientEndpoint(
            inner, RetryPolicy(max_attempts=2), breaker=None, seed=4)
        for _ in range(3):
            wrapper.query(SELECT)
        report = wrapper.report()
        assert report["queries"] == 3
        assert report["retries"] == 1
        assert report["failures"] == 0
        assert report["outcomes"] == {"ok": 3}
        assert report["circuit_state"] == "disabled"

    def test_resilient_over_local_endpoint_end_to_end(self):
        wrapper = ResilientEndpoint(LocalEndpoint(products_graph()))
        result = wrapper.query(SELECT)
        assert len(result) == 3
        assert wrapper.last.rows == 3
        assert wrapper.last.outcome == "ok"
        assert wrapper.last.attempts == 1
