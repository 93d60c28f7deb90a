"""Composable failure policies: retries, deadlines, circuit breakers.

Three small, independently testable pieces the serving stack threads
through its load and request paths:

:class:`RetryPolicy`
    Bounded attempts with exponential backoff and *deterministic*
    jitter (seeded — two processes with the same seed produce the same
    delay schedule, so chaos tests replay exactly).  The runner only
    retries the exception types it was told to
    (``retry_on``), never retries ``no_retry`` types (corruption is
    persistent — retrying an :class:`~repro.errors.IntegrityError`
    just re-reads the same broken bytes), and always re-raises the
    typed error once attempts are exhausted.

:class:`Deadline`
    A monotonic time budget.  Budgets propagate *implicitly* through
    :func:`deadline_scope` (a contextvar), so a shard load five frames
    below ``/multiply`` can stop work the request can no longer use —
    no kernel signature grows a ``deadline=`` parameter.

:class:`CircuitBreaker`
    The classic closed → open → half-open automaton guarding a load
    path.  ``failure_threshold`` consecutive failures open it; while
    open, :meth:`allow` raises :class:`~repro.errors.CircuitOpenError`
    (mapped to HTTP 503 + ``Retry-After``) instead of touching the
    broken resource; after ``reset_timeout`` a limited number of
    half-open probes decide between closing and re-opening.

All clocks and sleeps are injectable so the test battery runs in
virtual time.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time
from collections.abc import Callable, Iterator
from typing import TypeVar

from repro.errors import CircuitOpenError, DeadlineExceededError, ReproError

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class Deadline:
    """A monotonic time budget for one request or job.

    Parameters
    ----------
    budget:
        Seconds this deadline allows, measured from construction.
    clock:
        Monotonic clock (injectable for tests).
    """

    __slots__ = ("budget", "_clock", "_start")

    def __init__(
        self, budget: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        budget = float(budget)
        if budget <= 0:
            raise ReproError(f"deadline budget must be > 0, got {budget}")
        self.budget = budget
        self._clock = clock
        self._start = clock()

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> Deadline:
        """A deadline expiring ``seconds`` from now."""
        return cls(seconds, clock=clock)

    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.budget - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, what: str = "request") -> None:
        """Raise :class:`~repro.errors.DeadlineExceededError` if expired."""
        elapsed = self.elapsed()
        if elapsed >= self.budget:
            raise DeadlineExceededError(
                f"{what} exceeded its {self.budget:.3f}s deadline "
                f"({elapsed:.3f}s elapsed)",
                elapsed=elapsed,
                budget=self.budget,
            )

    def __repr__(self) -> str:
        return f"Deadline(budget={self.budget}, remaining={self.remaining():.3f})"


#: The ambient deadline of the current request/job, if any.  A plain
#: thread-local (not ``contextvars``): requests and jobs each run on
#: one thread, and worker pools below them get the *kernel* work, not
#: the budget bookkeeping.
_DEADLINES = threading.local()


def current_deadline() -> Deadline | None:
    """The innermost active :func:`deadline_scope` budget, if any."""
    stack = getattr(_DEADLINES, "stack", None)
    return stack[-1] if stack else None


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Make ``deadline`` the ambient budget for the enclosed work.

    ``None`` is accepted and scopes "no budget" (callers can pass their
    optional deadline straight through).  Scopes nest; the innermost
    one wins.
    """
    if deadline is None:
        yield None
        return
    stack = getattr(_DEADLINES, "stack", None)
    if stack is None:
        stack = _DEADLINES.stack = []
    stack.append(deadline)
    try:
        yield deadline
    finally:
        stack.pop()


def check_deadline(what: str = "request") -> None:
    """Check the ambient deadline (no-op when none is in scope)."""
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(what)


# ---------------------------------------------------------------------------
# Retries
# ---------------------------------------------------------------------------


class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Total attempts (first try included); ``1`` disables retries.
    base_delay, max_delay, multiplier:
        Attempt ``k`` (0-based retry index) backs off
        ``min(max_delay, base_delay * multiplier**k)`` seconds before
        jitter.
    jitter:
        Fractional jitter amplitude: the delay is scaled by a factor in
        ``[1 - jitter, 1 + jitter]`` drawn deterministically from
        ``seed`` and the attempt number.
    seed:
        Jitter seed — same seed, same schedule, every run.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.1,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ReproError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ReproError("retry delays must be >= 0")
        if not 0 <= jitter <= 1:
            raise ReproError(f"jitter must be in [0, 1], got {jitter}")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.multiplier = float(multiplier)
        self.jitter = float(jitter)
        self.seed = int(seed)

    def _jitter_factor(self, attempt: int) -> float:
        """Deterministic uniform factor in ``[1 - jitter, 1 + jitter]``."""
        if self.jitter == 0:
            return 1.0
        digest = hashlib.blake2b(
            f"{self.seed}:{attempt}".encode(), digest_size=8
        ).digest()
        unit = int.from_bytes(digest, "little") / 2**64  # [0, 1)
        return 1.0 + self.jitter * (2.0 * unit - 1.0)

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jitter applied."""
        raw = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        return raw * self._jitter_factor(attempt)

    def delays(self) -> list[float]:
        """The full deterministic backoff schedule (one per retry)."""
        return [self.delay_for(k) for k in range(self.max_attempts - 1)]

    def run(
        self,
        fn: Callable[[], T],
        retry_on: tuple[type[BaseException], ...] = (OSError,),
        no_retry: tuple[type[BaseException], ...] = (),
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Callable[[int, BaseException], None] | None = None,
        label: str = "operation",
    ) -> T:
        """Run ``fn`` under this policy and return its result.

        ``retry_on`` failures are retried with backoff; ``no_retry``
        types raise immediately even if they also match ``retry_on``
        (deterministic failures — corrupt bytes — must not burn
        attempts re-reading the same data).  The ambient deadline is
        checked before every attempt and before every backoff sleep,
        so a retrying load cannot outlive its request.  When attempts
        are exhausted the last typed error is re-raised unchanged.
        ``on_retry(retry_index, exc)`` fires before each backoff.
        """
        attempt = 0
        while True:
            check_deadline(label)
            try:
                return fn()
            except no_retry:
                raise
            except retry_on as exc:
                retries_done = attempt
                attempt += 1
                if attempt >= self.max_attempts:
                    raise
                delay = self.delay_for(retries_done)
                deadline = current_deadline()
                if deadline is not None and deadline.remaining() <= delay:
                    # Sleeping would expire the budget anyway: surface
                    # the typed failure now rather than a late 504.
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                if delay > 0:
                    sleep(delay)

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay={self.base_delay}, max_delay={self.max_delay}, "
            f"seed={self.seed})"
        )


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

#: Breaker states (:attr:`CircuitBreaker.state`).
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed → open → half-open breaker around one failure-prone resource.

    Callers bracket the guarded operation with :meth:`allow` /
    :meth:`record_success` / :meth:`record_failure`:

    - **closed** — operations proceed; ``failure_threshold``
      *consecutive* failures trip the breaker open.
    - **open** — :meth:`allow` raises
      :class:`~repro.errors.CircuitOpenError` (with ``retry_after``)
      without touching the resource, until ``reset_timeout`` elapses.
    - **half-open** — up to ``half_open_max`` probe operations run;
      one success closes the breaker, one failure re-opens it for a
      fresh ``reset_timeout``.

    Thread-safe; the clock is injectable for tests.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        half_open_max: int = 1,
        clock: Callable[[], float] = time.monotonic,
        name: str = "resource",
    ) -> None:
        if failure_threshold < 1:
            raise ReproError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ReproError(f"reset_timeout must be > 0, got {reset_timeout}")
        if half_open_max < 1:
            raise ReproError(f"half_open_max must be >= 1, got {half_open_max}")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.half_open_max = int(half_open_max)
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._failures = 0        # consecutive failures while closed
        self._opened_at = 0.0
        self._probes = 0          # in-flight half-open probes

    # -- state ------------------------------------------------------------------

    def _tick_locked(self) -> None:
        """Advance open → half-open when the reset timeout has passed."""
        if (
            self._state == STATE_OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = STATE_HALF_OPEN
            self._probes = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._tick_locked()
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._failures

    def retry_after(self) -> float:
        """Seconds until an open breaker half-opens (0 otherwise)."""
        with self._lock:
            self._tick_locked()
            if self._state != STATE_OPEN:
                return 0.0
            return max(
                0.0, self.reset_timeout - (self._clock() - self._opened_at)
            )

    # -- transitions ------------------------------------------------------------

    def allow(self) -> None:
        """Admit one operation or raise :class:`~repro.errors.CircuitOpenError`."""
        with self._lock:
            self._tick_locked()
            if self._state == STATE_CLOSED:
                return
            if self._state == STATE_HALF_OPEN:
                if self._probes < self.half_open_max:
                    self._probes += 1
                    return
                remaining = 0.0
            else:
                remaining = max(
                    0.0, self.reset_timeout - (self._clock() - self._opened_at)
                )
            raise CircuitOpenError(
                f"circuit for {self.name} is {self._state}: "
                f"{self._failures} consecutive failures; retry in "
                f"{remaining:.3f}s",
                retry_after=remaining,
            )

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state == STATE_HALF_OPEN:
                self._state = STATE_CLOSED
                self._probes = 0

    def record_failure(self) -> bool:
        """Count one failure; ``True`` when this call trips the breaker open.

        That happens at ``failure_threshold`` consecutive failures while
        closed, or on a failed half-open probe.  The caller counts the
        trip (the serving residency feeds ``repro_breaker_opens_total``),
        so the count outlives the breaker.
        """
        with self._lock:
            self._failures += 1
            if self._state == STATE_HALF_OPEN or (
                self._state == STATE_CLOSED
                and self._failures >= self.failure_threshold
            ):
                self._state = STATE_OPEN
                self._opened_at = self._clock()
                self._probes = 0
                return True
            return False

    def reset(self) -> None:
        """Force-close (admin/testing hook)."""
        with self._lock:
            self._state = STATE_CLOSED
            self._failures = 0
            self._probes = 0

    def __repr__(self) -> str:
        return f"CircuitBreaker(name={self.name!r}, state={self.state!r})"
