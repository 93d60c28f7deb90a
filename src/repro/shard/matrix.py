"""Row-partitioned matrices: per-part compression, one scatter-gather MVM.

Every row-partitioned representation multiplies through the kernels of
this module:

:class:`ShardedMatrix`
    The in-memory form — a list of fully materialised per-shard
    representations (any registered format, mixed freely).  Registered
    with the format registry as ``"sharded"``, so it serializes,
    serves, benches, and conformance-tests like every other format.
    The paper's Section 4.1 row blocks are its subclass
    :class:`repro.core.blocked.BlockedMatrix`, whose blocks share one
    value array ``V``.

:class:`LazyShardedMatrix`
    The serving form — holds only the container file's shard manifest
    and loads shard payloads on demand.  Each shard is an LRU entry
    under an optional ``shard_byte_budget``: after every shard visit
    the coldest unpinned shards are dropped back to disk until the
    loaded set fits, so the serving registry evicts *shards*, not
    whole matrices.  Overlapping requests share their scans: a pass
    starts at the shard most recently started by any pass and wraps
    around, pins the shard it is visiting, waits for a load of that
    shard already in flight instead of starting a second one, and
    leaves a shard only once the other passes visiting it are done, so
    concurrent passes run in lockstep and each cold shard is loaded,
    decoded and planned once per scan.

Multiplication is scatter-gather over the row partition: right
multiplication fans the operand out to every shard and concatenates
the per-shard results; left multiplication slices the operand by shard
row range and sums the per-shard row vectors.  ``executor`` (a
persistent :class:`repro.serve.executor.BlockExecutor`) or
``threads > 1`` (a pool for the one call) run the per-shard work
concurrently.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    MatrixFormatError,
    ReproError,
    ShardUnavailableError,
)
from repro.formats.base import MatrixFormat
from repro.obs.metrics import Counter
from repro.obs.trace import add_event, span
from repro.resilience import faults as _faults
from repro.resilience.policy import (
    STATE_CLOSED,
    STATE_OPEN,
    CircuitBreaker,
    RetryPolicy,
    check_deadline,
    current_deadline,
)
from repro.shard.plan import ShardPlan, plan_shards

#: Degradation states reported by :attr:`LazyShardedMatrix.state` (and
#: surfaced through the registry's ``describe()`` / ``/stats``).
STATE_HEALTHY = "healthy"
STATE_DEGRADED = "degraded"
STATE_QUARANTINED = "quarantined"


def _offsets_of(row_counts) -> np.ndarray:
    offsets = np.zeros(len(row_counts) + 1, dtype=np.int64)
    np.cumsum(list(row_counts), out=offsets[1:])
    return offsets


class _ShardFanout(MatrixFormat):
    """Shared scatter-gather kernels over a contiguous row partition.

    Subclasses provide ``_shard(i)`` (one shard, possibly loading it)
    and ``_all_shards()`` (every shard, in row order); ``_offsets`` is
    the ``n_shards + 1`` row-offset array.
    """

    format_name = "sharded"

    _offsets: np.ndarray
    _shape: tuple[int, int]

    # -- partition accessors -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def n_shards(self) -> int:
        return len(self._offsets) - 1

    @property
    def row_offsets(self) -> np.ndarray:
        """Shard ``i`` covers rows ``row_offsets[i]:row_offsets[i+1]``."""
        view = self._offsets.view()
        view.flags.writeable = False
        return view

    @property
    def shards(self) -> list:
        """Every shard representation, in row order."""
        return self._all_shards()

    def _shard(self, i: int):
        raise NotImplementedError

    def _all_shards(self) -> list:
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        return np.vstack([s.to_dense() for s in self._all_shards()])

    # -- scatter-gather kernels -----------------------------------------------------

    def _map_shards(self, fn, threads: int, executor) -> list:
        """``fn(shard, i)`` over every shard, results in row order.

        The parallel paths — the caller's ``executor``, or a pool of
        ``threads`` workers for this one call — need every shard in
        memory at once.  The sequential path is a circular scan: it
        visits shards one at a time from :meth:`_scan_start`, wrapping
        around, brackets each visit with :meth:`_pin_shard` and
        :meth:`_after_shard` (the latter also when the visit fails),
        and places each result at its shard index, so callers combine
        the results in row order whatever the start.  The eager form
        starts at 0 and pins nothing.  The lazy form starts where the
        most recent pass started, so a request arriving mid-pass joins
        the shard in flight; the pin keeps the visited shard resident
        for the visit, and :meth:`_after_shard` waits for the shard's
        other visitors, releases the pin and streams unpinned cold
        shards back out, so one request never holds more than the
        shard byte budget plus the shard it is visiting.
        """
        if executor is not None:
            return executor.map_blocks(fn, self._all_shards())
        if threads > 1 and self.n_shards > 1:
            from repro.serve.executor import BlockExecutor

            with BlockExecutor(threads) as pool:
                return pool.map_blocks(fn, self._all_shards())
        n = self.n_shards
        results: list = [None] * n
        start = self._scan_start()
        for step in range(n):
            i = (start + step) % n
            self._pin_shard(i)
            try:
                results[i] = fn(self._shard(i), i)
            finally:
                self._after_shard(i)
        return results

    def _scan_start(self) -> int:
        """First shard of a sequential pass (base: 0)."""
        return 0

    def _pin_shard(self, i: int) -> None:
        """Hook before a sequential shard visit (base: no-op)."""

    def _after_shard(self, i: int) -> None:
        """Hook after a sequential shard visit (base: no-op)."""

    def _right_vector(self, x: np.ndarray, threads: int, executor) -> np.ndarray:
        parts = self._map_shards(
            lambda s, _i: s.right_multiply(x), threads, executor
        )
        return np.concatenate(parts)

    def _left_vector(self, y: np.ndarray, threads: int, executor) -> np.ndarray:
        parts = self._map_shards(
            lambda s, i: s.left_multiply(
                y[self._offsets[i] : self._offsets[i + 1]]
            ),
            threads,
            executor,
        )
        out = np.zeros(self._shape[1], dtype=np.float64)
        for p in parts:
            out += p
        return out

    def _right_panel(
        self, panel, out, threads: int, executor, panel_width
    ) -> None:
        # One pass per call: each shard gets the whole panel and chunks
        # it by ``panel_width`` itself, so its decode runs once.
        self._map_shards(
            lambda s, i: s.right_multiply_matrix(
                panel,
                out=out[self._offsets[i] : self._offsets[i + 1]],
                panel_width=panel_width,
            ),
            threads,
            executor,
        )

    def _left_panel(
        self, panel, out, threads: int, executor, panel_width
    ) -> None:
        # The parts are summed in shard order once the pass ends, so the
        # result is bit-identical whatever shard the scan started at;
        # the call holds one ``(n_cols, k)`` part per shard until then.
        parts = self._map_shards(
            lambda s, i: s.left_multiply_matrix(
                panel[self._offsets[i] : self._offsets[i + 1]],
                panel_width=panel_width,
            ),
            threads,
            executor,
        )
        out[:] = 0.0
        for p in parts:
            out += p

    # -- shared accounting ----------------------------------------------------------

    def resident_overhead_bytes(self) -> int:
        return sum(s.resident_overhead_bytes() for s in self._loaded_shards())

    def enable_plan_retention(self, retain: bool = True) -> bool:
        # Materialized first so every shard sees the call; ``any`` over
        # a generator would stop at the first shard that took it.
        took = [s.enable_plan_retention(retain) for s in self._loaded_shards()]
        return any(took)

    def release_retained_plans(self) -> None:
        for s in self._loaded_shards():
            s.release_retained_plans()

    def _loaded_shards(self) -> list:
        """Shards currently in memory (all of them for the eager form)."""
        return self._all_shards()


class ShardedMatrix(_ShardFanout):
    """A matrix stored as independently compressed row shards.

    Every shard is a complete, self-contained representation of its
    row slice, and shards may mix formats freely (``csr`` for the
    sparse stripe, ``re_ans`` for the repetitive one, ...).  The
    subclass :class:`repro.core.blocked.BlockedMatrix` is the paper's
    Section 4.1 layout, whose blocks share one value array ``V``.

    Parameters
    ----------
    shards:
        Per-shard :class:`~repro.formats.MatrixFormat` instances
        covering consecutive row ranges, in row order.
    shape:
        Overall ``(n_rows, n_cols)``.
    """

    def __init__(self, shards: list, shape: tuple[int, int]):
        if not shards:
            raise MatrixFormatError(
                f"{type(self).__name__} requires at least one part"
            )
        self._shards = list(shards)
        self._shape = (int(shape[0]), int(shape[1]))
        for s in self._shards:
            if s.shape[1] != self._shape[1]:
                raise MatrixFormatError(
                    f"shard has {s.shape[1]} columns, expected {self._shape[1]}"
                )
        self._offsets = _offsets_of([s.shape[0] for s in self._shards])
        if self._offsets[-1] != self._shape[0]:
            raise MatrixFormatError(
                f"shards cover {self._offsets[-1]} rows, "
                f"expected {self._shape[0]}"
            )

    def _shard(self, i: int):
        return self._shards[i]

    def _all_shards(self) -> list:
        return list(self._shards)

    @property
    def shard_formats(self) -> tuple[str, ...]:
        return tuple(s.format_name for s in self._shards)

    def __repr__(self) -> str:
        return (
            f"ShardedMatrix(shape={self._shape}, n_shards={self.n_shards}, "
            f"formats={list(self.shard_formats)})"
        )

    # -- accounting -----------------------------------------------------------------

    def size_bytes(self) -> int:
        return sum(s.size_bytes() for s in self._shards)

    def size_breakdown(self) -> dict[str, int]:
        """Bytes aggregated by shard format (values sum to size_bytes)."""
        parts: dict[str, int] = {}
        for s in self._shards:
            key = s.format_name
            parts[key] = parts.get(key, 0) + int(s.size_bytes())
        return parts


def build_sharded(
    source,
    plan: ShardPlan | None = None,
    n_shards: int | None = None,
    target_rows: int | None = None,
    target_bytes: int | None = None,
    format: str | None = None,
    executor=None,
    workers: int = 1,
    **build_opts,
) -> ShardedMatrix:
    """Compress ``source`` into a :class:`ShardedMatrix`.

    Either pass a precomputed :class:`~repro.shard.plan.ShardPlan` or
    the planner's sizing knobs (see
    :func:`~repro.shard.plan.plan_shards`).  Shard builds are
    independent, so ``executor`` (a
    :class:`repro.serve.executor.BlockExecutor`) or ``workers > 1``
    (a transient thread pool) compresses them in parallel.
    """
    from repro import formats as _registry

    dense = np.asarray(source, dtype=np.float64)
    if plan is None:
        plan = plan_shards(
            dense,
            n_shards=n_shards,
            target_rows=target_rows,
            target_bytes=target_bytes,
            format=format,
            build_opts=build_opts or None,
        )
    elif plan.shape != dense.shape:
        raise MatrixFormatError(
            f"plan is for shape {plan.shape}, matrix has {dense.shape}"
        )

    def build_one(spec, _i):
        block = dense[spec.row_start : spec.row_stop]
        return _registry.compress(block, format=spec.format, **spec.build_opts)

    specs = list(plan.shards)
    if executor is not None:
        shards = executor.map_blocks(build_one, specs)
    else:
        from repro.serve.executor import BlockExecutor

        with BlockExecutor(max(1, workers)) as pool:
            shards = pool.map_blocks(build_one, specs)
    return ShardedMatrix(shards, plan.shape)


class LazyShardedMatrix(_ShardFanout):
    """A sharded container file served shard-by-shard under a byte budget.

    Construction reads only the shard manifest (row ranges and byte
    ranges); each shard payload is deserialized on the first
    multiplication that needs it and kept as an LRU entry.  When
    ``shard_byte_budget`` is set, the loaded set is trimmed to the
    budget by evicting least-recently-used shards — *between* shard
    visits on the sequential path, and after the request on the
    ``threads``/``executor`` paths (which need all shards live at
    once; parallelism deliberately trades the in-request bound for
    speed).  The whole matrix stays registered and servable while only
    a sliding window of shards is resident.

    Concurrent requests share one circular scan.  A sequential pass
    starts at the shard most recently started by any pass and wraps
    around; it *pins* the shard it is visiting, and eviction skips
    pinned shards.  Each shard has at most one load in flight: a
    request that needs a shard another request is loading waits for
    that load instead of reading it again, and
    the shard's retained engine is built once as well
    (:meth:`~repro.core.gcm.GrammarCompressedMatrix._get_engine`).  So
    a request arriving mid-pass joins the shard in flight, and a pass
    leaves a shard only once the other passes visiting it are done,
    so the passes run in lockstep and a cold shard is loaded, decoded
    and planned once per scan rather than once per request.  Every
    wait is bounded by the waiting request's own ambient deadline; if
    the load it waits for fails or runs out of *its* request's
    deadline, the waiter loads the shard itself, so no request fails
    on another's deadline and breakers and retries count only real
    attempts.  Waits record ``shard.wait`` spans (``on="load"`` or
    ``on="visit"``).  The budget contract is therefore: the loaded set
    holds at most the budget plus one in-flight (pinned) shard per
    concurrent request.

    The serving registry (:class:`repro.serve.registry.MatrixRegistry`)
    builds these for ``"sharded"`` entries, passing its own byte budget
    through, and re-polls :meth:`resident_footprint_bytes` (see
    :attr:`dynamic_residency`) so its accounting follows the loaded
    window rather than a load-time snapshot.

    Shard loads are resilient: transient IO failures retry under
    ``retry_policy`` (corruption does not — an
    :class:`~repro.errors.IntegrityError` re-reads the same broken
    bytes), every shard has its own
    :class:`~repro.resilience.policy.CircuitBreaker`, and a shard
    whose breaker is open is *quarantined* — loads fail fast with
    :class:`~repro.errors.ShardUnavailableError` until the breaker
    half-opens and a probe load succeeds.  The matrix keeps serving
    work that avoids quarantined shards, and :attr:`state` /
    :meth:`resilience_stats` expose
    ``healthy`` / ``degraded`` / ``quarantined`` for the registry.
    Loads honour the ambient request deadline
    (:func:`repro.resilience.policy.deadline_scope`).
    """

    #: Tells the serving registry this matrix's resident footprint
    #: changes between requests and must be re-polled.
    dynamic_residency = True

    def __init__(
        self,
        path,
        shard_byte_budget: int | None = None,
        retain_plans: bool = False,
        retry_policy: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 30.0,
        manifest: list | None = None,
        shape: tuple[int, int] | None = None,
        mmap: bool = False,
    ):
        self._path = path
        if manifest is not None and shape is not None:
            # Catalog-driven open: the store already holds the shard
            # table, so construction costs zero file IO.
            self._shape = (int(shape[0]), int(shape[1]))
            self._manifest = list(manifest)
        else:
            from repro.io.serialize import read_shard_manifest

            self._shape, self._manifest = read_shard_manifest(path)
        self._offsets = _offsets_of([e.n_rows for e in self._manifest])
        self._budget = shard_byte_budget
        self._retain_plans = bool(retain_plans)
        self._lock = threading.RLock()
        self._visit_ended = threading.Condition(self._lock)
        self._loaded: dict[int, object] = {}
        self._last_use: dict[int, int] = {}
        self._tick = 0
        # Shared-scan state: pins held by passes visiting a shard, the
        # one load in flight per shard, and the most recent pass start.
        self._pins: dict[int, int] = {}
        self._inflight: dict[int, threading.Event] = {}
        self._scan_head = 0
        self._retry = retry_policy or RetryPolicy(
            max_attempts=3, base_delay=0.01, max_delay=0.25
        )
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_reset = float(breaker_reset)
        self._breakers: dict[int, CircuitBreaker] = {}
        self._mmap = bool(mmap)
        self._view: memoryview | None = None
        # Standalone obs counters (not registered with any metrics
        # registry): the serving registry aggregates them across live
        # and whole-evicted matrices at scrape time, so registering the
        # raw values too would double-count.
        self._shard_loads = Counter()
        self._shard_evictions = Counter()
        self._shard_retries = Counter()
        self._shard_failures = Counter()

    @property
    def shard_loads(self) -> int:
        return int(self._shard_loads.value)

    @property
    def shard_evictions(self) -> int:
        return int(self._shard_evictions.value)

    @property
    def shard_retries(self) -> int:
        return int(self._shard_retries.value)

    @property
    def shard_failures(self) -> int:
        return int(self._shard_failures.value)

    # -- shard loading and eviction ---------------------------------------------------

    @property
    def path(self):
        return self._path

    @property
    def shard_byte_budget(self) -> int | None:
        return self._budget

    @property
    def resident_shards(self) -> int:
        """How many shards are currently loaded."""
        with self._lock:
            return len(self._loaded)

    @property
    def state(self) -> str:
        """Degradation state: ``healthy`` / ``degraded`` / ``quarantined``.

        *Quarantined* — at least one shard breaker is open (that shard
        fails fast until its reset timeout); *degraded* — no breaker is
        open but some shard has recent failures (half-open probes or a
        partial failure streak); *healthy* — everything clean.
        """
        with self._lock:
            breakers = list(self._breakers.values())
        states = [b.state for b in breakers]
        if any(s == STATE_OPEN for s in states):
            return STATE_QUARANTINED
        if any(
            s != STATE_CLOSED or b.consecutive_failures > 0
            for s, b in zip(states, breakers, strict=True)
        ):
            return STATE_DEGRADED
        return STATE_HEALTHY

    def quarantined_shards(self) -> list[int]:
        """Indices of shards whose breaker is currently open."""
        with self._lock:
            items = list(self._breakers.items())
        return sorted(i for i, b in items if b.state == STATE_OPEN)

    def resilience_stats(self) -> dict:
        """JSON-ready degradation counters for ``/stats``."""
        with self._lock:
            items = list(self._breakers.items())
        return {
            "state": self.state,
            "shard_retries": int(self.shard_retries),
            "shard_failures": int(self.shard_failures),
            "quarantined_shards": sorted(
                i for i, b in items if b.state == STATE_OPEN
            ),
            "breaker_opens": sum(b.opens for _i, b in items),
        }

    def shard_breaker(self, i: int) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding shard ``i``."""
        with self._lock:
            breaker = self._breakers.get(i)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    reset_timeout=self._breaker_reset,
                    name=f"{self._path}#shard{i}",
                )
                self._breakers[i] = breaker
            return breaker

    def _map_file(self) -> memoryview:
        """The shared read-only view over the mapped container file."""
        with self._lock:
            if self._view is None:
                from repro.io.mmap_io import map_view

                self._view = map_view(self._path)
            return self._view

    def _load_shard(self, i: int):
        """One load attempt: read, fault hook, deadline check, decode.

        In mmap mode the section is a zero-copy slice of the shared
        mapped view and its CRC footer is still verified
        (:func:`repro.io.mmap_io.loads_section_mmap`); the
        fault-injection hook is bypassed — it rewrites materialized
        ``bytes``, which a mapped region deliberately never becomes.
        Eviction then just drops the decoded views; the mapping stays
        alive (and any arrays handed out stay valid) through their
        ``.base`` chain until nothing references it.
        """
        entry = self._manifest[i]
        if self._mmap:
            view = self._map_file()
            section = view[entry.offset : entry.offset + entry.length]
            check_deadline(f"shard {i} load of {self._path}")
            from repro.io.mmap_io import loads_section_mmap

            return loads_section_mmap(
                section, source=f"{self._path}#shard{i}"
            )
        with open(self._path, "rb") as fh:
            fh.seek(entry.offset)
            blob = fh.read(entry.length)
        blob = _faults.on_read(
            _faults.SITE_SHARD_LOAD, f"{self._path}#shard{i}", blob
        )
        check_deadline(f"shard {i} load of {self._path}")
        from repro.io.serialize import loads_matrix

        return loads_matrix(blob)

    def _shard(self, i: int):
        """Shard ``i``, loading it when cold — one load in flight per shard.

        A request that finds another request's load of the shard in
        flight waits for it rather than reading the shard again; when
        that load fails (or its request's deadline ends it), the first
        waiter to wake loads the shard itself.
        """
        while True:
            with self._lock:
                shard = self._loaded.get(i)
                if shard is not None:
                    self._tick += 1
                    self._last_use[i] = self._tick
                    # Warm path: no span — the request-level span
                    # already covers it, and per-hit span churn would
                    # show up in the obs_overhead gate.
                    return shard
                flight = self._inflight.get(i)
                if flight is None:
                    flight = self._inflight[i] = threading.Event()
                    break
            self._await_load(i, flight)
        try:
            return self._load_and_publish(i)
        finally:
            with self._lock:
                del self._inflight[i]
            flight.set()

    def _await_load(self, i: int, flight: threading.Event) -> None:
        """Wait for another request's load of shard ``i`` to end.

        Bounded by the ambient deadline: raises
        :class:`~repro.errors.DeadlineExceededError` once the waiting
        request's own budget is spent, whatever the loader's is.
        """
        deadline = current_deadline()
        with span("shard.wait", shard=i, on="load"):
            if deadline is None:
                flight.wait()
                return
            while not flight.wait(max(deadline.remaining(), 0.0)):
                deadline.check(f"shard {i} load of {self._path}")

    def _load_and_publish(self, i: int):
        """Load shard ``i`` under its breaker and retries, then publish it."""
        check_deadline(f"shard {i} load of {self._path}")
        with span("shard.load", shard=i, mmap=self._mmap):
            breaker = self.shard_breaker(i)
            try:
                breaker.allow()
            except CircuitOpenError as exc:
                raise ShardUnavailableError(
                    f"shard {i} of {self._path} is quarantined: {exc}",
                    shard=i,
                    retry_after=exc.retry_after,
                ) from exc

            def _count_retry(attempt: int, exc: BaseException) -> None:
                self._shard_retries.inc()
                add_event(
                    "load.retry",
                    attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                )

            try:
                shard = self._retry.run(
                    lambda: self._load_shard(i),
                    retry_on=(OSError,),
                    no_retry=(DeadlineExceededError,),
                    on_retry=_count_retry,
                    label=f"shard {i} load of {self._path}",
                )
            except DeadlineExceededError:
                # The *request* ran out of budget — not the shard's fault;
                # the breaker only counts failures of the shard itself.
                raise
            except (ReproError, OSError) as exc:
                breaker.record_failure()
                self._shard_failures.inc()
                raise ShardUnavailableError(
                    f"shard {i} of {self._path} failed to load: "
                    f"{type(exc).__name__}: {exc}",
                    shard=i,
                    retry_after=breaker.retry_after(),
                ) from exc
            breaker.record_success()
            if self._retain_plans:
                shard.enable_plan_retention(True)
            with self._lock:
                # The LRU tick is set on publication, under the lock, so
                # a whole-matrix eviction during the load cannot leave a
                # loaded shard without one.
                self._loaded[i] = shard
                self._tick += 1
                self._last_use[i] = self._tick
                self._shard_loads.inc()
                return shard

    def _all_shards(self) -> list:
        return [self._shard(i) for i in range(self.n_shards)]

    def _loaded_shards(self) -> list:
        with self._lock:
            return list(self._loaded.values())

    def resident_shard_bytes(self) -> int:
        """Summed resident estimate of the currently loaded shards."""
        return sum(
            int(s.size_bytes()) + int(s.resident_overhead_bytes())
            for s in self._loaded_shards()
        )

    def enforce_shard_budget(self) -> int:
        """Evict unpinned LRU shards until the loaded set fits the budget.

        Returns the number of shards evicted.  With no budget this is
        a no-op.  Every loaded shard may be evicted except those pinned
        by a pass visiting them — a cold shard reloads on its next use,
        so the matrix always stays servable, and the loaded set exceeds
        the budget by at most one pinned shard per concurrent request.
        """
        if self._budget is None:
            return 0
        evicted = 0
        with self._lock:
            while self.resident_shard_bytes() > self._budget:
                unpinned = [i for i in self._loaded if i not in self._pins]
                if not unpinned:
                    break
                victim = min(unpinned, key=self._last_use.__getitem__)
                shard = self._loaded.pop(victim)
                shard.release_retained_plans()
                self._shard_evictions.inc()
                evicted += 1
        return evicted

    def evict_all_shards(self) -> None:
        """Drop every loaded shard (registry whole-matrix eviction)."""
        with self._lock:
            for shard in self._loaded.values():
                shard.release_retained_plans()
            self._loaded.clear()
            self._last_use.clear()

    def _scan_start(self) -> int:
        """A new pass joins the scan at the most recently started shard."""
        with self._lock:
            return self._scan_head

    def _pin_shard(self, i: int) -> None:
        """Keep shard ``i`` resident while a pass visits it."""
        with self._lock:
            self._pins[i] = self._pins.get(i, 0) + 1
            self._scan_head = i

    def _after_shard(self, i: int) -> None:
        """Release the visit's pin and stream cold shards out.

        When other passes are still visiting shard ``i``, the pass
        first waits (within its own deadline) for them to finish it, so
        passes that share a shard move on together and share the next
        load too.  Without the wait, the pass that does the loads keeps
        the interpreter lock and runs ahead, and its budget checks evict
        each next shard before the other pass reaches it.
        """
        with self._lock:
            pins = self._pins.pop(i) - 1
            if pins:
                self._pins[i] = pins
                self._await_visitors_locked(i)
            else:
                self._visit_ended.notify_all()
        self.enforce_shard_budget()

    def _await_visitors_locked(self, i: int) -> None:
        """Wait until no other pass is visiting shard ``i`` (lock held)."""
        deadline = current_deadline()
        with span("shard.wait", shard=i, on="visit"):
            while i in self._pins:
                if deadline is None:
                    self._visit_ended.wait()
                elif deadline.remaining() <= 0:
                    return  # never wait past the pass's own deadline
                else:
                    self._visit_ended.wait(deadline.remaining())

    # -- budget hooks on the public kernel surface ------------------------------------

    def right_multiply(self, x, threads: int = 1, executor=None) -> np.ndarray:
        try:
            return super().right_multiply(x, threads=threads, executor=executor)
        finally:
            self.enforce_shard_budget()

    def left_multiply(self, y, threads: int = 1, executor=None) -> np.ndarray:
        try:
            return super().left_multiply(y, threads=threads, executor=executor)
        finally:
            self.enforce_shard_budget()

    def right_multiply_matrix(self, x_block, **kwargs) -> np.ndarray:
        try:
            return super().right_multiply_matrix(x_block, **kwargs)
        finally:
            self.enforce_shard_budget()

    def left_multiply_matrix(self, y_block, **kwargs) -> np.ndarray:
        try:
            return super().left_multiply_matrix(y_block, **kwargs)
        finally:
            self.enforce_shard_budget()

    # -- accounting -------------------------------------------------------------------

    def size_bytes(self) -> int:
        """Serialized payload bytes over all shards (loaded or not)."""
        return sum(e.length for e in self._manifest)

    def size_breakdown(self) -> dict[str, int]:
        return {"shards": self.size_bytes()}

    def resident_footprint_bytes(self) -> int:
        """Live bytes right now: only the loaded shard window counts."""
        return self.resident_shard_bytes()

    def enable_plan_retention(self, retain: bool = True) -> bool:
        # The flag steers every future shard load, and loads happen on
        # whichever serving thread touches a cold shard first — the
        # write must be published under the same lock those loads hold.
        with self._lock:
            self._retain_plans = bool(retain)
        return super().enable_plan_retention(retain)

    def release_retained_plans(self) -> None:
        self.evict_all_shards()

    def __repr__(self) -> str:
        return (
            f"LazyShardedMatrix(path={str(self._path)!r}, "
            f"shape={self._shape}, n_shards={self.n_shards}, "
            f"resident={self.resident_shards})"
        )
