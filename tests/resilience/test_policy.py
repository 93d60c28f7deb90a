"""Deadlines, retry policies, and the circuit breaker — in virtual time."""

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    IntegrityError,
    ReproError,
)
from repro.resilience.policy import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    check_deadline,
    current_deadline,
    deadline_scope,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_budget_must_be_positive(self):
        for bad in (0, -1):
            with pytest.raises(ReproError):
                Deadline(bad)

    def test_expiry_in_virtual_time(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(1.5)
        assert deadline.expired
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("shard load")
        assert excinfo.value.budget == pytest.approx(1.0)
        assert excinfo.value.elapsed == pytest.approx(1.5)
        assert "shard load" in str(excinfo.value)

    def test_scope_is_ambient_and_nests(self):
        clock = FakeClock()
        outer = Deadline.after(10.0, clock=clock)
        inner = Deadline.after(1.0, clock=clock)
        assert current_deadline() is None
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_none_scope_is_transparent(self):
        with deadline_scope(None):
            assert current_deadline() is None
            check_deadline()  # no-op

    def test_check_deadline_raises_when_expired(self):
        clock = FakeClock()
        deadline = Deadline.after(0.5, clock=clock)
        clock.advance(1.0)
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceededError):
                check_deadline("iteration")


class TestRetryPolicy:
    def test_schedule_is_deterministic(self):
        a = RetryPolicy(max_attempts=4, base_delay=0.1, seed=7)
        b = RetryPolicy(max_attempts=4, base_delay=0.1, seed=7)
        assert a.delays() == b.delays()
        assert a.delays() != RetryPolicy(max_attempts=4, seed=8).delays()

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.1, max_delay=0.4,
            multiplier=2.0, jitter=0.0,
        )
        assert policy.delays() == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_retries_then_succeeds(self):
        calls = {"n": 0}
        retries = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        result = policy.run(
            flaky, on_retry=lambda k, exc: retries.append((k, type(exc)))
        )
        assert result == "ok"
        assert retries == [(1, OSError), (2, OSError)]

    def test_exhaustion_reraises_typed(self):
        def always():
            raise OSError("persistent")

        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        with pytest.raises(OSError, match="persistent"):
            policy.run(always)

    def test_no_retry_raises_immediately(self):
        calls = {"n": 0}

        def corrupt():
            calls["n"] += 1
            raise IntegrityError("bad bytes")

        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        with pytest.raises(IntegrityError):
            policy.run(
                corrupt,
                retry_on=(OSError, ReproError),
                no_retry=(IntegrityError,),
            )
        assert calls["n"] == 1

    def test_deadline_short_circuits_backoff(self):
        # Remaining budget (0.05s) < backoff (10s): re-raise now,
        # never sleep into a guaranteed 504.
        clock = FakeClock()
        slept = []
        policy = RetryPolicy(max_attempts=3, base_delay=10.0, jitter=0.0)
        with deadline_scope(Deadline.after(0.05, clock=clock)):
            with pytest.raises(OSError):
                policy.run(
                    lambda: (_ for _ in ()).throw(OSError("x")),
                    sleep=slept.append,
                )
        assert slept == []

    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay=-1)


class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset=30.0):
        return CircuitBreaker(
            failure_threshold=threshold,
            reset_timeout=reset,
            clock=clock,
            name="unit",
        )

    def test_full_cycle_closed_open_half_open_closed(self):
        clock = FakeClock()
        breaker = self.make(clock)
        assert breaker.state == STATE_CLOSED
        tripped = []
        for _ in range(3):
            breaker.allow()
            tripped.append(breaker.record_failure())
        assert breaker.state == STATE_OPEN
        assert tripped == [False, False, True]
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.allow()
        assert excinfo.value.retry_after == pytest.approx(30.0)

        clock.advance(30.0)
        assert breaker.state == STATE_HALF_OPEN
        breaker.allow()  # the probe is admitted
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.consecutive_failures == 0

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1, reset=10.0)
        assert breaker.record_failure() is True
        clock.advance(10.0)
        breaker.allow()
        assert breaker.record_failure() is True
        assert breaker.state == STATE_OPEN
        assert breaker.retry_after() == pytest.approx(10.0)

    def test_half_open_probe_budget(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1, reset=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()  # probe 1 (half_open_max=1)
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # probe budget spent

    def test_success_resets_failure_streak(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED  # streak broken: 1 < 3

    def test_reset_force_closes(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1)
        breaker.record_failure()
        breaker.reset()
        assert breaker.state == STATE_CLOSED
        breaker.allow()

    def test_validation(self):
        with pytest.raises(ReproError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ReproError):
            CircuitBreaker(reset_timeout=0)
        with pytest.raises(ReproError):
            CircuitBreaker(half_open_max=0)
