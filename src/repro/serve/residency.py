"""One residency for every unit the serving stack keeps loaded.

A *unit* is a whole matrix, keyed ``(name, None)``, or shard ``i`` of
a lazily served sharded matrix ``view``, keyed ``(view, i)``.  A
:class:`Residency` keeps all of them in one least-recently-used order
under one optional byte budget:

- **one load in flight per unit** — a request that needs a unit another
  request is loading waits for that load until its own ambient deadline
  (:func:`repro.resilience.policy.deadline_scope`) passes, and loads
  the unit itself if that load failed.  Waits record ``registry.wait``
  (a whole matrix) or ``shard.wait`` (``on="load"``) spans.
- **one guarded load** — transient ``OSError`` reads retry under one
  :class:`~repro.resilience.policy.RetryPolicy`; every unit has its own
  :class:`~repro.resilience.policy.CircuitBreaker`, which quarantines
  it after ``breaker_threshold`` consecutive failures.  An expired
  request deadline does not count as a failure.
- **one budget** — a unit is charged :func:`resident_estimate` when it
  is published; plan retention is on by then, and the formats'
  estimates do not depend on whether a plan was built.
  :meth:`Residency.trim` evicts the least recently used units until
  the total fits, skipping pinned units, the unit kept by the caller,
  and units charged 0 (a lazy matrix itself: evicting it frees
  nothing).  So the loaded units hold at most the budget, plus one
  pinned unit per concurrent request, plus one kept unit larger than
  the budget.  An evicted whole matrix is never published again, so
  the shards a pass still running over an evicted lazy view loads go
  back to that pass and are not kept.
- **pins** — a pass over a lazy matrix pins the shard it visits, and
  :meth:`Residency.unpin` waits for the other passes visiting it,
  which keeps overlapping passes in lockstep.
- **counters** — loads, evictions, retries and failures of whole
  matrices (``repro_registry_*_total``) and of shards
  (``repro_shard_*_total``), and breaker trips
  (``repro_breaker_opens_total``), registered once on a
  :class:`~repro.obs.metrics.MetricsRegistry` and read back by
  :meth:`Residency.stats`.  Each is incremented where its event
  happens, so no count drops when a unit or its breaker goes.

:class:`~repro.serve.registry.MatrixRegistry` owns one residency and
lends it to every lazy matrix it builds; a standalone lazy matrix gets
a private one with no budget.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

from repro.errors import DeadlineExceededError, ReproError
from repro.obs.metrics import Family, MetricsRegistry
from repro.obs.trace import add_event, span
from repro.resilience.policy import (
    STATE_CLOSED,
    STATE_OPEN,
    CircuitBreaker,
    RetryPolicy,
    check_deadline,
    current_deadline,
)

#: ``(name, None)`` for a whole matrix, ``(view, i)`` for shard ``i``.
Key = tuple[Hashable, int | None]


def resident_estimate(matrix: Any) -> int:
    """Estimated live bytes of a served unit: payload + working caches.

    Serving multiplies repeatedly, so the caches warm immediately and
    are charged up front.  Each format reports its own cache footprint
    (:meth:`repro.formats.MatrixFormat.resident_overhead_bytes`): a
    CSRV block's decoded views and scipy CSR panel view, and a grammar
    block's retained multiplication plan with its bound weights
    (``re_32`` retains by default; ``re_iv``/``re_ans`` once the
    registry enabled plan retention on them).  Call it *after*
    ``enable_plan_retention`` so the charge covers the plan.
    """
    footprint = getattr(matrix, "resident_footprint_bytes", None)
    if footprint is not None:
        return int(footprint())
    overhead = getattr(matrix, "resident_overhead_bytes", None)
    return int(matrix.size_bytes()) + int(overhead() if overhead else 0)


@dataclass(frozen=True)
class UnitCounters:
    """Loads, evictions, retries and failures of one kind of unit."""

    loads: Family
    evictions: Family
    retries: Family
    failures: Family


class Residency:
    """Loaded units in one LRU under one byte budget, with guarded loads.

    Parameters
    ----------
    byte_budget:
        Optional cap on the summed charges of loaded units; ``None``
        disables eviction.
    retry_policy:
        Retries of transient ``OSError`` loads (default: 3 attempts,
        10 ms base backoff).
    breaker_threshold, breaker_reset:
        Consecutive failures that quarantine a unit, and the seconds
        before its breaker half-opens.
    metrics:
        The registry the counters join (a private one when ``None``).
    """

    def __init__(
        self,
        byte_budget: int | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 30.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if byte_budget is not None and byte_budget < 1:
            raise ReproError(f"byte_budget must be >= 1, got {byte_budget}")
        self._budget = byte_budget
        self._retry = retry_policy or RetryPolicy(
            max_attempts=3, base_delay=0.01, max_delay=0.25
        )
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_reset = float(breaker_reset)
        self._lock = threading.RLock()
        self._visit_ended = threading.Condition(self._lock)
        #: access-ordered (least recently used first): value and charge.
        self._units: OrderedDict[Key, tuple[Any, int]] = OrderedDict()
        self._total = 0
        self._pins: dict[Key, int] = {}
        self._inflight: dict[Key, threading.Event] = {}
        self._breakers: dict[Key, CircuitBreaker] = {}
        #: evicted whole matrices: the units a pass still running over
        #: one of them (a lazy view's shards) loads are never kept.
        self._retired: weakref.WeakSet[Any] = weakref.WeakSet()
        m = metrics if metrics is not None else MetricsRegistry()
        self.matrix_counts = UnitCounters(*(
            m.counter(f"repro_registry_{name}_total", text) for name, text in (
                ("loads", "Matrices deserialized from disk."),
                ("evictions", "Whole-matrix evictions (explicit or over-budget)."),
                ("load_retries", "Transient load failures retried under the retry policy."),
                ("load_failures", "Matrix loads that exhausted retries and failed."),
            )
        ))
        self.shard_counts = UnitCounters(*(
            m.counter(f"repro_shard_{name}_total", text) for name, text in (
                ("loads", "Shard payloads streamed in."),
                ("evictions", "Shards evicted back to disk."),
                ("retries", "Transient shard-load failures retried."),
                ("failures", "Shard loads that exhausted retries."),
            )
        ))
        self.breaker_opens = m.counter(
            "repro_breaker_opens_total",
            "Circuit breaker open transitions across entries and shards.",
        )

    def _counts(self, key: Key) -> UnitCounters:
        return self.matrix_counts if key[1] is None else self.shard_counts

    # -- loading ------------------------------------------------------------------

    def get(self, key: Key, load: Callable[[], Any], label: str) -> Any:
        """The unit behind ``key``, running ``load()`` when it is cold.

        A loaded unit is touched and returned.  While another request
        loads it, the caller waits for that load, within its own
        deadline (:class:`~repro.errors.DeadlineExceededError` once it
        passes), and runs the load itself if that one failed.
        Otherwise ``load`` runs under the unit's breaker and the retry
        policy, and the result is charged and published.  ``label``
        names the unit in errors and on its breaker.
        """
        while True:
            with self._lock:
                unit = self._units.get(key)
                if unit is not None:
                    self._units.move_to_end(key)
                    return unit[0]
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = threading.Event()
                    break
            self._await_load(key, flight, label)
        try:
            value = self._guarded_load(key, load, label)
            charge = resident_estimate(value)
            with self._lock:
                self._counts(key).loads.inc()
                # A discard of the owner during the load cancelled it,
                # and an evicted owner is never served again: the
                # caller gets the value, the residency keeps nothing.
                if self._inflight.get(key) is flight and key[0] not in self._retired:
                    self._units[key] = (value, charge)
                    self._total += charge
            return value
        finally:
            with self._lock:
                if self._inflight.get(key) is flight:
                    del self._inflight[key]
            flight.set()

    def _await_load(self, key: Key, flight: threading.Event, label: str) -> None:
        """Wait for another request's load of ``key``, within the deadline."""
        owner, index = key
        deadline = current_deadline()
        scope = (
            span("registry.wait", matrix=str(owner))
            if index is None
            else span("shard.wait", shard=index, on="load")
        )
        with scope:
            if deadline is None:
                flight.wait()
                return
            while not flight.wait(max(deadline.remaining(), 0.0)):
                deadline.check(f"load of {label}")

    def _guarded_load(self, key: Key, load: Callable[[], Any], label: str) -> Any:
        """One load of ``key`` under its breaker and the retry policy."""
        check_deadline(f"load of {label}")
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = self._breakers[key] = CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    reset_timeout=self._breaker_reset,
                    name=label,
                )
        breaker.allow()  # CircuitOpenError while quarantined
        counts = self._counts(key)

        def count_retry(attempt: int, exc: BaseException) -> None:
            counts.retries.inc()
            add_event(
                "load.retry", attempt=attempt, error=f"{type(exc).__name__}: {exc}"
            )

        try:
            value = self._retry.run(
                load,
                retry_on=(OSError,),
                no_retry=(DeadlineExceededError,),
                on_retry=count_retry,
                label=f"load of {label}",
            )
        except DeadlineExceededError:
            # The request ran out of budget, which says nothing about
            # the unit: the breaker counts only the unit's own failures.
            raise
        except (ReproError, OSError):
            if breaker.record_failure():
                self.breaker_opens.inc()
            counts.failures.inc()
            raise
        breaker.record_success()
        return value

    # -- pins ---------------------------------------------------------------------

    def pin(self, key: Key) -> None:
        """Keep ``key`` out of :meth:`trim` until the matching :meth:`unpin`."""
        with self._lock:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: Key) -> None:
        """Release one pin of ``key`` once no other pin of it is held.

        The wait (within the caller's own deadline) makes passes that
        share a shard move on together and share the next load too.
        Without it, the pass that does the loads keeps the interpreter
        lock and runs ahead, and its trims evict each next shard before
        the other pass reaches it.
        """
        with self._lock:
            pins = self._pins.pop(key) - 1
            if not pins:
                self._visit_ended.notify_all()
                return
            self._pins[key] = pins
            deadline = current_deadline()
            with span("shard.wait", shard=key[1], on="visit"):
                while key in self._pins:
                    if deadline is None:
                        self._visit_ended.wait()
                    elif deadline.remaining() <= 0:
                        return  # never wait past the caller's own deadline
                    else:
                        self._visit_ended.wait(deadline.remaining())

    # -- eviction -----------------------------------------------------------------

    def trim(self, keep: Key | None = None) -> int:
        """Evict least recently used units until the budget holds.

        Pinned units, ``keep`` and units charged 0 are skipped.
        Returns the number of units evicted (0 without a budget).
        """
        if self._budget is None:
            return 0
        evicted = 0
        with self._lock:
            for key, (_value, charge) in list(self._units.items()):
                if self._total <= self._budget:
                    break
                if key == keep or key in self._pins or not charge:
                    continue
                self._evict_locked(key)
                evicted += 1
        return evicted

    def discard(self, owner: Hashable, breakers: bool = False) -> int:
        """Evict every loaded unit of ``owner``; return how many.

        Loads of ``owner``'s units still in flight publish nothing, and
        an evicted whole matrix keeps none of the units loaded for it
        later (the shards a pass over an evicted lazy view still
        loads).  With ``breakers``, the owner's breakers go too, so
        none outlives the matrix it guarded (a re-registered name may
        point at a replaced, healthy file).
        """
        with self._lock:
            keys = [k for k in self._units if k[0] == owner]
            for key in keys:
                if key in self._units:
                    self._evict_locked(key)
            for key in [k for k in self._inflight if k[0] == owner]:
                self._inflight.pop(key).set()
            if breakers:
                for key in [k for k in self._breakers if k[0] == owner]:
                    del self._breakers[key]
            return len(keys)

    def _evict_locked(self, key: Key) -> None:
        value, charge = self._units.pop(key)
        self._total -= charge
        self._counts(key).evictions.inc()
        if key[1] is None and isinstance(value, Hashable):
            # Units are keyed by their owner: only a hashable one has any.
            self._retired.add(value)
        # The budget charged the unit's retained plans, so they must
        # not outlive it in the shared plan cache; a lazy matrix
        # discards its shards here.
        release = getattr(value, "release_retained_plans", None)
        if release is not None:
            release()

    # -- accounting ---------------------------------------------------------------

    @property
    def byte_budget(self) -> int | None:
        """The configured budget (``None`` = unlimited)."""
        return self._budget

    @property
    def resident_bytes(self) -> int:
        """Summed charges of the loaded units."""
        with self._lock:
            return self._total

    def peek(self, key: Key) -> Any:
        """The loaded unit behind ``key`` (``None`` when cold), untouched."""
        with self._lock:
            unit = self._units.get(key)
        return None if unit is None else unit[0]

    def loaded(self, owner: Hashable) -> list[tuple[Any, int]]:
        """``(value, charge)`` of every loaded unit of ``owner``."""
        with self._lock:
            return [unit for (o, _i), unit in self._units.items() if o == owner]

    def stats(self) -> dict[str, Any]:
        """The residency's ``/stats`` keys: what is loaded, the budget,
        and the counters of whole matrices, shards and breakers."""
        with self._lock:
            matrices = sum(index is None for _o, index in self._units)
            shards = len(self._units) - matrices
            total = self._total
        m, s = self.matrix_counts, self.shard_counts
        return {
            "resident": matrices,
            "resident_shards": shards,
            "resident_bytes": total,
            "byte_budget": self._budget,
            "loads": int(m.loads.value),
            "evictions": int(m.evictions.value),
            "load_retries": int(m.retries.value),
            "load_failures": int(m.failures.value),
            "shard_loads": int(s.loads.value),
            "shard_evictions": int(s.evictions.value),
            "shard_retries": int(s.retries.value),
            "shard_failures": int(s.failures.value),
            "breaker_opens": int(self.breaker_opens.value),
        }

    def breakers(self, owner: Hashable) -> dict[int | None, CircuitBreaker]:
        """``owner``'s breakers by unit index (created by its first load)."""
        with self._lock:
            return {i: b for (o, i), b in self._breakers.items() if o == owner}

    def state(self, *owners: Hashable) -> str:
        """``healthy`` / ``degraded`` / ``quarantined`` over the owners' units.

        *Quarantined*: some breaker is open, so that unit fails fast
        until its reset timeout.  *Degraded*: none is open, but some
        unit has recent failures (a half-open probe or a partial
        failure streak).  *Healthy*: everything is clean.
        """
        with self._lock:
            breakers = [b for (o, _i), b in self._breakers.items() if o in owners]
        states = [b.state for b in breakers]
        if STATE_OPEN in states:
            return "quarantined"
        if any(
            s != STATE_CLOSED or b.consecutive_failures > 0
            for s, b in zip(states, breakers, strict=True)
        ):
            return "degraded"
        return "healthy"
