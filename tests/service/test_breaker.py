"""Client-side degradation: the circuit breaker's state machine on a
deterministic clock, the seeded retry policy, and both wired into
:class:`ServiceClient` without any real network."""

import threading

import pytest

from repro.faults import install, reset
from repro.faults.plan import FaultPlan
from repro.service.client import ServiceClient, ServiceError
from repro.service.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
)


class Clock:
    """A hand-cranked monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = Clock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout=30.0, clock=clock
        )
        for _ in range(2):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.allow()
        assert excinfo.value.remaining == pytest.approx(30.0)
        assert breaker.fast_failures == 1

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=Clock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probe_closes_on_success(self):
        clock = Clock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        breaker.allow()  # the probe goes through
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_probe_reopens_on_failure(self):
        clock = Clock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(5.0)
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.allow()
        assert excinfo.value.remaining == pytest.approx(5.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=-1.0)


class TestRetryPolicy:
    def test_delays_are_seeded_and_reproducible(self):
        first = [RetryPolicy(seed=5).delay_for(i) for i in range(4)]
        second = [RetryPolicy(seed=5).delay_for(i) for i in range(4)]
        assert first == second
        assert [RetryPolicy(seed=6).delay_for(i) for i in range(4)] != first

    def test_exponential_within_the_jitter_band(self):
        policy = RetryPolicy(backoff=0.2, max_backoff=5.0, jitter=0.5)
        for attempt in range(6):
            base = min(0.2 * 2 ** attempt, 5.0)
            assert base <= policy.delay_for(attempt) <= base * 1.5

    def test_retry_after_floors_the_delay(self):
        policy = RetryPolicy(backoff=0.1, jitter=0.0)
        assert policy.delay_for(0, retry_after=7.0) == 7.0

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)


class TestClientIntegration:
    """The retry/breaker wiring inside ServiceClient, driven through a
    stubbed transport (``_request_once``) so no server is needed."""

    @pytest.fixture(autouse=True)
    def _clean_plan(self):
        reset()
        yield
        reset()

    def test_transient_failures_retried_until_success(self):
        sleeps = []
        client = ServiceClient(
            "http://stub.invalid",
            retry=RetryPolicy(retries=3, backoff=0.1, jitter=0.0),
            sleep=sleeps.append,
        )
        outcomes = [
            ServiceError("shedding", status=503, retry_after=2.0),
            ServiceError("unreachable", status=None),
            b'{"ok": true}',
        ]

        def stub(method, path, body=None):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._request_once = stub
        assert client._json("GET", "/v1/healthz") == {"ok": True}
        assert client.retries_attempted == 2
        # The server's Retry-After hint floored the first delay; the
        # second backed off exponentially from the policy base.
        assert sleeps[0] == 2.0
        assert sleeps[1] == pytest.approx(0.2)

    def test_non_transient_errors_never_retried(self):
        client = ServiceClient(
            "http://stub.invalid",
            retry=RetryPolicy(retries=5),
            sleep=lambda seconds: None,
        )

        def stub(method, path, body=None):
            raise ServiceError("bad request", status=400)

        client._request_once = stub
        with pytest.raises(ServiceError):
            client._json("GET", "/x")
        assert client.retries_attempted == 0

    def test_breaker_opens_then_recovers(self):
        clock = Clock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=60.0, clock=clock
        )
        client = ServiceClient("http://stub.invalid", breaker=breaker)

        def down(method, path, body=None):
            raise ServiceError("unreachable")

        client._request_once = down
        for _ in range(2):
            with pytest.raises(ServiceError):
                client.status("j1")
        # Open: the next call fails fast without touching the stub.
        with pytest.raises(CircuitOpenError):
            client.status("j1")
        assert breaker.fast_failures == 1
        # After the reset timeout, the half-open probe succeeds and the
        # circuit closes again.
        clock.advance(60.0)
        client._request_once = lambda m, p, body=None: b'{"state": "done"}'
        assert client.status("j1") == {"state": "done"}
        assert breaker.state == CLOSED

    def test_injected_client_fault_is_transient(self):
        install(FaultPlan.parse("client.request:io_error@1"))
        client = ServiceClient("http://127.0.0.1:1")  # never dialled
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.transient
        assert "cannot reach" in str(excinfo.value)


class TestRetryCounterThreadSafety:
    def test_concurrent_retries_never_lose_increments(self):
        """One client may be shared by several threads; retry-counter
        increments go through the client's stats lock, so none are lost
        under contention."""
        client = ServiceClient(
            "http://stub.invalid",
            retry=RetryPolicy(retries=1, backoff=0.0, jitter=0.0),
            sleep=lambda seconds: None,
        )
        local = threading.local()

        def stub(method, path, body=None):
            # Strict per-thread alternation: each request fails once
            # (503) and then succeeds, independent of interleaving.
            if not getattr(local, "failed", False):
                local.failed = True
                raise ServiceError("flaky", status=503)
            local.failed = False
            return b"{}"

        client._request_once = stub
        workers = [
            threading.Thread(
                target=lambda: [client._json("GET", "/v1/healthz") for _ in range(50)]
            )
            for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        # Every request failed exactly once then succeeded: one retry
        # per request, none raced away.
        assert client.retries_attempted == 4 * 50
