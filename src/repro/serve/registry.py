"""A named store of compressed matrices with lazy loading and LRU eviction.

The serving engine addresses matrices by name; behind each name is a
``.gcmx`` file (:mod:`repro.io.serialize`).  The registry is the memory
manager between the two:

- **listing is free** — :func:`repro.io.serialize.read_matrix_info`
  parses only the file header, so ``/matrices`` never loads anything;
- **loading is lazy** — a matrix is deserialized on its first
  multiplication request and kept resident;
- **residency is budgeted** — an optional byte budget caps the total
  estimated footprint of resident matrices; crossing it evicts the
  least recently *used* matrices (an :class:`~collections.OrderedDict`
  in access order).  The matrix being loaded is never evicted on its
  own behalf: a single matrix larger than the budget stays resident
  alone, so every registered matrix remains servable.

The budget charge is :func:`resident_estimate` — ``size_bytes()``
*plus* each format's self-reported
:meth:`~repro.formats.MatrixFormat.resident_overhead_bytes` (a CSRV
block caches its decoded views and a scipy CSR for the panel kernels;
a grammar variant charges its retained
:class:`~repro.core.multiply.MvmPlan` and bound weights — ``re_32``
always, since it retains by default, ``re_iv``/``re_ans`` when the
registry's plan retention is on), so the budget tracks what the
process actually keeps live, not just the compressed payload.

Plan retention (``retain_plans``, on by default) flips every loaded
matrix into the served multiplication configuration via
:meth:`~repro.formats.MatrixFormat.enable_plan_retention`: formats that
would otherwise rebuild their multiplication schedule per request
build it once and keep it, trading the extra resident bytes — which
this registry charges — for warm-request latency (the cold/warm gap is
tracked in ``BENCH_hotpaths.json``).

All operations are thread-safe, and loads happen *outside* the
registry-wide lock (one short-lived per-entry lock serialises
concurrent loads of the same matrix): a slow cold load of one matrix
never stalls requests for already-resident ones.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.errors import DeadlineExceededError, ReproError, SerializationError
from repro.io.serialize import (
    ShardManifestEntry,
    format_of_info,
    load_matrix,
    read_matrix_info,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import add_event, span
from repro.resilience.policy import (
    STATE_CLOSED,
    STATE_OPEN,
    CircuitBreaker,
    RetryPolicy,
)

#: File suffix scanned by :meth:`MatrixRegistry.scan`.
GCMX_SUFFIX = ".gcmx"


def resident_estimate(matrix: Any) -> int:
    """Estimated live bytes of a served matrix: payload + working caches.

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


def _release_plans(matrix: Any) -> None:
    """Free a matrix's retained plans on eviction (duck-typed no-op)."""
    release = getattr(matrix, "release_retained_plans", None)
    if release is not None:
        release()


@dataclass
class RegistryEntry:
    """One registered matrix: its file, header info, and residency."""

    name: str
    path: Path
    info: dict = field(default_factory=dict)
    matrix: Any = None
    resident_bytes: int = 0
    #: shard placement from the store catalog — lets a lazy sharded
    #: load skip the manifest read entirely (``None`` = read from file).
    manifest: list[ShardManifestEntry] | None = None
    #: serialises concurrent cold loads of this one entry.
    load_lock: threading.Lock = field(default_factory=threading.Lock)
    #: guards this entry's load path (set by ``register``).
    breaker: CircuitBreaker | None = None

    @property
    def resident(self) -> bool:
        return self.matrix is not None


class MatrixRegistry:
    """Named ``.gcmx`` matrices with lazy loading and byte-budgeted LRU.

    Parameters
    ----------
    root:
        Optional directory to :meth:`scan` for ``*.gcmx`` files at
        construction (each file registers under its stem).
    byte_budget:
        Optional cap on the summed in-memory ``size_bytes()`` of
        resident matrices; ``None`` disables eviction.
    retain_plans:
        Enable multiplication-plan retention on every loaded matrix
        (default ``True`` — the serving configuration).  The retained
        plans are charged against ``byte_budget`` through each format's
        ``resident_overhead_bytes``.
    lazy_shards:
        Serve ``"sharded"`` container files through
        :class:`repro.shard.LazyShardedMatrix` (default ``True``):
        only the shard manifest is read at load time, shard payloads
        stream in on demand, and the matrix keeps its own loaded set
        within this registry's ``byte_budget`` by evicting cold
        *shards* after every multiplication.  ``False`` materialises
        sharded entries whole, like any other format.
    """

    def __init__(
        self,
        root: Any = None,
        byte_budget: int | None = None,
        retain_plans: bool = True,
        lazy_shards: bool = True,
        retry_policy: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 30.0,
        store: Any = None,
        mmap: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if byte_budget is not None and byte_budget < 1:
            raise ReproError(f"byte_budget must be >= 1, got {byte_budget}")
        self._budget = byte_budget
        self._retain_plans = bool(retain_plans)
        self._lazy_shards = bool(lazy_shards)
        self._retry = retry_policy or RetryPolicy(
            max_attempts=3, base_delay=0.01, max_delay=0.25
        )
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_reset = float(breaker_reset)
        self._lock = threading.RLock()
        #: access-ordered: least recently used first.
        self._entries: OrderedDict[str, RegistryEntry] = OrderedDict()
        self._mmap = bool(mmap)
        self._store: Any = None
        #: the single sink for every counter this registry keeps; the
        #: server adopts it so ``/metrics`` scrapes one registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        lookups = self.metrics.counter(
            "repro_registry_lookups_total",
            "Registry lookups by result (hit = already resident).",
            labels=("result",),
        )
        self._c_hits = lookups.labels(result="hit")
        self._c_misses = lookups.labels(result="miss")
        self._c_loads = self.metrics.counter(
            "repro_registry_loads_total", "Matrices deserialized from disk."
        )
        self._c_evictions = self.metrics.counter(
            "repro_registry_evictions_total",
            "Whole-matrix evictions (explicit or over-budget).",
        )
        self._c_load_retries = self.metrics.counter(
            "repro_registry_load_retries_total",
            "Transient load failures retried under the retry policy.",
        )
        self._c_load_failures = self.metrics.counter(
            "repro_registry_load_failures_total",
            "Matrix loads that exhausted retries and failed.",
        )
        #: header prefixes parsed by :meth:`register` — the cost a
        #: catalog-driven cold start avoids (store-smoke asserts 0).
        self._c_header_reads = self.metrics.counter(
            "repro_registry_header_reads_total",
            "File headers parsed at registration time.",
        )
        #: entries built purely from catalog rows (no file IO at all).
        self._c_catalog_registrations = self.metrics.counter(
            "repro_registry_catalog_registrations_total",
            "Registrations served from the store catalog with zero file IO.",
        )
        self._h_load_seconds = self.metrics.histogram(
            "repro_registry_load_seconds",
            "Wall time of whole-matrix cold loads in seconds.",
        )
        # Shard counters of lazy sharded matrices that were since
        # whole-evicted — folded in here so /stats never goes backwards.
        self._shard_loads_absorbed = 0
        self._shard_evictions_absorbed = 0
        self._shard_retries_absorbed = 0
        self._shard_failures_absorbed = 0
        self.metrics.register_collector(self._collect_metrics)
        if root is not None:
            self.scan(root)
        if store is not None:
            self.register_store(store)

    # -- legacy counter attributes (the /stats vocabulary) -------------------------

    @property
    def hits(self) -> int:
        return int(self._c_hits.value)

    @property
    def misses(self) -> int:
        return int(self._c_misses.value)

    @property
    def loads(self) -> int:
        return int(self._c_loads.value)

    @property
    def evictions(self) -> int:
        return int(self._c_evictions.value)

    @property
    def load_retries(self) -> int:
        return int(self._c_load_retries.value)

    @property
    def load_failures(self) -> int:
        return int(self._c_load_failures.value)

    @property
    def header_reads(self) -> int:
        return int(self._c_header_reads.value)

    @property
    def catalog_registrations(self) -> int:
        return int(self._c_catalog_registrations.value)

    def _collect_metrics(self) -> None:
        """Scrape-time collector: residency gauges, shard/breaker
        aggregates (absorbed + live, so the totals never go backwards),
        and the global plan cache's counters."""
        stats = self.stats()
        m = self.metrics
        m.gauge(
            "repro_registry_matrices", "Registered matrices."
        ).set(stats["matrices"])
        m.gauge(
            "repro_registry_resident", "Currently resident matrices."
        ).set(stats["resident"])
        m.gauge(
            "repro_registry_resident_bytes",
            "Estimated live bytes of resident matrices.",
        ).set(stats["resident_bytes"])
        m.gauge(
            "repro_registry_resident_shards",
            "Loaded shards across resident lazy sharded matrices.",
        ).set(stats["resident_shards"])
        m.gauge(
            "repro_registry_quarantined",
            "Entries failing fast behind an open breaker.",
        ).set(stats["quarantined"])
        m.gauge(
            "repro_registry_degraded",
            "Entries with recent failures or open shard breakers.",
        ).set(stats["degraded"])
        m.counter(
            "repro_shard_loads_total",
            "Shard payloads streamed in (absorbed + live).",
        ).set_total(stats["shard_loads"])
        m.counter(
            "repro_shard_evictions_total",
            "Shards evicted back to disk (absorbed + live).",
        ).set_total(stats["shard_evictions"])
        m.counter(
            "repro_shard_retries_total",
            "Transient shard-load failures retried (absorbed + live).",
        ).set_total(stats["shard_retries"])
        m.counter(
            "repro_shard_failures_total",
            "Shard loads that exhausted retries (absorbed + live).",
        ).set_total(stats["shard_failures"])
        m.counter(
            "repro_breaker_opens_total",
            "Circuit breaker open transitions across entries and shards.",
        ).set_total(stats["breaker_opens"])
        from repro.core.gcm import plan_cache

        plans = plan_cache().stats()
        m.counter(
            "repro_plan_cache_hits_total", "MVM plan cache hits."
        ).set_total(plans["hits"])
        m.counter(
            "repro_plan_cache_misses_total", "MVM plan cache misses."
        ).set_total(plans["misses"])
        m.gauge(
            "repro_plan_cache_plans", "MVM plans currently cached."
        ).set(plans["plans"])
        m.gauge(
            "repro_plan_cache_bytes", "Bytes held by cached MVM plans."
        ).set(plans["bytes"])

    # -- registration ------------------------------------------------------------

    def register(self, name: str, path: Any) -> RegistryEntry:
        """Register (or re-register) ``name`` for the file at ``path``.

        The header is peeked immediately so a bad file fails at
        registration, not at first request.
        """
        path = Path(path)
        info = read_matrix_info(path)
        with self._lock:
            self._c_header_reads.inc()
            entry = RegistryEntry(
                name=name,
                path=path,
                info=info,
                # Re-registration gets a fresh breaker: the file may
                # have been replaced with a healthy one.
                breaker=CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    reset_timeout=self._breaker_reset,
                    name=f"matrix {name!r}",
                ),
            )
            self._entries[name] = entry
            self._entries.move_to_end(name, last=False)  # cold = LRU end
            return entry

    def scan(self, root: Any) -> list[str]:
        """Register every ``*.gcmx`` file under ``root`` by file stem.

        Returns the registered names (sorted).  Unreadable files are
        skipped rather than failing the whole scan.
        """
        root = Path(root)
        if not root.is_dir():
            raise ReproError(f"registry root {root} is not a directory")
        names = []
        for path in sorted(root.glob(f"*{GCMX_SUFFIX}")):
            try:
                self.register(path.stem, path)
            except (ReproError, OSError):
                continue
            names.append(path.stem)
        return names

    def register_from_catalog(self, record: Any, shards: Any = ()) -> RegistryEntry:
        """Register one matrix from a store catalog row — zero file IO.

        ``record`` is a :class:`repro.store.CatalogEntry`; ``shards``
        its :class:`repro.store.ShardRow` rows for sharded containers.
        The registry entry's info dict is reconstructed from the row
        and the shard placement becomes the entry's ``manifest``, so
        neither registration nor the eventual lazy load re-reads the
        header or the shard table.
        """
        manifest = (
            [s.manifest_entry() for s in shards] if shards else None
        )
        with self._lock:
            self._c_catalog_registrations.inc()
            entry = RegistryEntry(
                name=record.name,
                path=Path(record.path),
                info=record.info(),
                manifest=manifest,
                breaker=CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    reset_timeout=self._breaker_reset,
                    name=f"matrix {record.name!r}",
                ),
            )
            self._entries[record.name] = entry
            self._entries.move_to_end(record.name, last=False)
            return entry

    def register_store(self, store: Any) -> list[str]:
        """Register every matrix of a store from its catalog.

        ``store`` is a :class:`repro.store.MatrixStore` or a store root
        path.  Cost is O(catalog rows): the only file touched is
        ``catalog.sqlite`` — restart latency no longer scales with
        payload bytes.  Sharded entries carry their shard placement
        from the catalog, so even the first request reads no manifest.
        """
        from repro.store import MatrixStore

        if not isinstance(store, MatrixStore):
            store = MatrixStore(store, create=False)
        names = []
        for record in store.entries():
            shards = (
                store.catalog.shards(record.name)
                if record.kind == "sharded"
                else ()
            )
            self.register_from_catalog(record, shards)
            names.append(record.name)
        with self._lock:
            self._store = store
        return sorted(names)

    @property
    def store(self) -> Any:
        """The attached :class:`repro.store.MatrixStore`, if any."""
        with self._lock:
            return self._store

    def store_info(self) -> dict[str, Any] | None:
        """Catalog summary for ``/store`` (``None`` without a store)."""
        with self._lock:
            store = self._store
        if store is None:
            return None
        return {
            "root": str(store.root),
            "catalog": str(store.catalog.path),
            "schema_version": store.catalog.schema_version(),
            "matrices": len(store),
            "total_bytes": store.total_bytes(),
            "mmap": self._mmap,
        }

    # -- lookup -------------------------------------------------------------------

    def names(self) -> list[str]:
        """Registered names, most recently used last."""
        with self._lock:
            return list(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _entry_state(self, entry: RegistryEntry) -> str:
        """``healthy`` / ``degraded`` / ``quarantined`` for one entry.

        The entry's own load breaker dominates (an open breaker means
        the whole matrix fails fast); otherwise a resident matrix with
        internal degradation (a lazy sharded matrix with quarantined
        shards) reports its own state.
        """
        breaker = entry.breaker
        if breaker is not None:
            bstate = breaker.state
            if bstate == STATE_OPEN:
                return "quarantined"
            if bstate != STATE_CLOSED or breaker.consecutive_failures > 0:
                return "degraded"
        inner = getattr(entry.matrix, "state", None) if entry.resident else None
        return inner if isinstance(inner, str) else "healthy"

    def describe(self, name: str) -> dict:
        """Header info plus residency and health for one matrix (no load)."""
        with self._lock:
            entry = self._require(name)
            out = {"name": name, "path": str(entry.path), **entry.info}
            out["format"] = format_of_info(entry.info)
            out["resident"] = entry.resident
            out["state"] = self._entry_state(entry)
            if entry.resident:
                self._refresh_residency(entry)
                out["resident_bytes"] = entry.resident_bytes
                resident_shards = getattr(
                    entry.matrix, "resident_shards", None
                )
                if resident_shards is not None:
                    out["resident_shards"] = resident_shards
            return out

    def entries(self) -> list[dict]:
        """:meth:`describe` for every registered matrix (sorted by name)."""
        with self._lock:
            return [self.describe(name) for name in sorted(self._entries)]

    def _require(self, name: str) -> RegistryEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise SerializationError(f"no matrix registered under {name!r}")
        return entry

    # -- loading and eviction -------------------------------------------------------

    def get(self, name: str) -> Any:
        """Return the matrix behind ``name``, loading it if needed.

        Marks the entry most-recently-used and, after a load, evicts
        least-recently-used residents until the byte budget holds
        again (never the entry just requested).  The disk read and
        deserialization run outside the registry lock, so concurrent
        requests for resident matrices are never stalled by a cold
        load; concurrent loads of the *same* matrix are serialised by
        the entry's own lock (one load, the rest wait and reuse it).

        The load path is guarded: transient ``OSError`` reads retry
        under the registry's :class:`~repro.resilience.policy.RetryPolicy`,
        and every entry has a circuit breaker — after
        ``breaker_threshold`` consecutive load failures the entry is
        quarantined and requests fail fast with
        :class:`~repro.errors.CircuitOpenError` (HTTP 503 +
        ``Retry-After``) until the breaker half-opens.  Other entries
        are unaffected: a corrupt file never takes the registry down.
        """
        with span("registry.get", matrix=name) as sp:
            with self._lock:
                entry = self._require(name)
                self._entries.move_to_end(name)
                if entry.matrix is not None:
                    self._c_hits.inc()
                    sp.set("hit", True)
                    return entry.matrix
            with entry.load_lock:
                with self._lock:
                    if entry.matrix is not None:  # a concurrent load won
                        self._c_hits.inc()
                        sp.set("hit", True)
                        return entry.matrix
                    self._c_misses.inc()
                    sp.set("hit", False)
                breaker = entry.breaker
                if breaker is not None:
                    breaker.allow()  # CircuitOpenError when quarantined

                def _count_retry(attempt: int, exc: BaseException) -> None:
                    self._c_load_retries.inc()
                    add_event(
                        "load.retry",
                        attempt=attempt,
                        error=f"{type(exc).__name__}: {exc}",
                    )

                load_started = perf_counter()
                try:
                    matrix = self._retry.run(
                        lambda: self._load_entry(entry),
                        retry_on=(OSError,),
                        no_retry=(DeadlineExceededError,),
                        on_retry=_count_retry,
                        label=f"load of matrix {name!r}",
                    )
                    if self._retain_plans:
                        # Served matrices multiply repeatedly: switch formats
                        # that rebuild their multiplication schedule per call
                        # into build-once retention *before* estimating
                        # residency, so the budget charge includes the plan.
                        matrix.enable_plan_retention(True)
                except DeadlineExceededError:
                    # The request ran out of budget — says nothing about
                    # the entry's health, so the breaker stays untouched.
                    raise
                except (ReproError, OSError):
                    if breaker is not None:
                        breaker.record_failure()
                    self._c_load_failures.inc()
                    raise
                if breaker is not None:
                    breaker.record_success()
                self._h_load_seconds.observe(perf_counter() - load_started)
                with self._lock:
                    entry.matrix = matrix
                    entry.resident_bytes = resident_estimate(matrix)
                    self._c_loads.inc()
                    self._evict_over_budget(keep=name)
                return matrix

    def _load_entry(self, entry: RegistryEntry) -> Any:
        """Deserialize one entry — lazily for sharded containers."""
        lazy = self._lazy_shards and entry.info.get("kind") == "sharded"
        with span(
            "registry.load",
            matrix=entry.name,
            kind=str(entry.info.get("kind", "single")),
            lazy=lazy,
            mmap=self._mmap,
        ):
            if lazy:
                from repro.shard.matrix import LazyShardedMatrix

                shape = entry.info.get("shape")
                return LazyShardedMatrix(
                    entry.path,
                    shard_byte_budget=self._budget,
                    retry_policy=self._retry,
                    breaker_threshold=self._breaker_threshold,
                    breaker_reset=self._breaker_reset,
                    manifest=entry.manifest,
                    shape=tuple(shape) if shape is not None else None,
                    mmap=self._mmap,
                )
            return load_matrix(entry.path, mmap=self._mmap)

    def _refresh_residency(self, entry: RegistryEntry) -> None:
        """Re-poll entries whose footprint moves between requests
        (lazy sharded matrices load/evict shards during multiplies)."""
        if entry.matrix is not None and getattr(
            entry.matrix, "dynamic_residency", False
        ):
            entry.resident_bytes = resident_estimate(entry.matrix)

    def _absorb_shard_counters(self, matrix: Any) -> None:
        """Keep a whole-evicted lazy matrix's shard counters in /stats."""
        if hasattr(matrix, "shard_loads"):
            self._shard_loads_absorbed += matrix.shard_loads  # ra: unlocked — both callers (evict, _evict_over_budget) hold self._lock
            self._shard_evictions_absorbed += matrix.shard_evictions  # ra: unlocked — both callers (evict, _evict_over_budget) hold self._lock
        if hasattr(matrix, "shard_retries"):
            self._shard_retries_absorbed += matrix.shard_retries  # ra: unlocked — both callers (evict, _evict_over_budget) hold self._lock
            self._shard_failures_absorbed += matrix.shard_failures  # ra: unlocked — both callers (evict, _evict_over_budget) hold self._lock

    def evict(self, name: str) -> bool:
        """Drop ``name``'s resident matrix (keeps the registration)."""
        with self._lock:
            entry = self._require(name)
            if entry.matrix is None:
                return False
            self._absorb_shard_counters(entry.matrix)
            _release_plans(entry.matrix)
            entry.matrix = None
            entry.resident_bytes = 0
            self._c_evictions.inc()
            return True

    def enforce_budget(self, keep: str | None = None) -> int:
        """Re-apply the byte budget to the *current* residency.

        Lazy sharded entries grow their footprint during multiplies
        (shards stream in after the load-time budget check), so the
        serving layer calls this after answering a request: residency
        is re-polled and least-recently-used residents — other than
        ``keep`` — are whole-evicted until the budget holds again.
        Returns the number of evictions performed.
        """
        with self._lock:
            before = self.evictions
            self._evict_over_budget(keep=keep)
            return self.evictions - before

    def _evict_over_budget(self, keep: str | None) -> None:
        if self._budget is None:
            return
        while self.resident_bytes > self._budget:
            # resident_bytes refreshed dynamic entries above, so lazy
            # sharded matrices are charged for their loaded window only.
            victim = next(
                (
                    e
                    for e in self._entries.values()
                    if e.resident and e.name != keep
                ),
                None,
            )
            if victim is None:
                break  # only `keep` is resident — it always stays servable
            # Free the victim's retained plans with it: the budget
            # charged them, so they must not outlive the eviction in
            # the shared plan cache.
            self._absorb_shard_counters(victim.matrix)
            _release_plans(victim.matrix)
            victim.matrix = None
            victim.resident_bytes = 0
            self._c_evictions.inc()

    # -- accounting -------------------------------------------------------------------

    @property
    def byte_budget(self) -> int | None:
        """The configured residency budget (``None`` = unlimited)."""
        return self._budget

    @property
    def retain_plans(self) -> bool:
        """Whether loaded matrices keep their multiplication plans."""
        return self._retain_plans

    @property
    def resident_bytes(self) -> int:
        """Summed live footprint of currently resident matrices.

        Entries with a moving footprint (lazy sharded containers) are
        re-polled, so the figure follows their loaded shard window.
        """
        with self._lock:
            for entry in self._entries.values():
                self._refresh_residency(entry)
            return sum(e.resident_bytes for e in self._entries.values())

    def stats(self) -> dict[str, Any]:
        """Counters for ``/stats``: hits, misses, loads, evictions, residency."""
        with self._lock:
            shard_loads = self._shard_loads_absorbed
            shard_evictions = self._shard_evictions_absorbed
            shard_retries = self._shard_retries_absorbed
            shard_failures = self._shard_failures_absorbed
            resident_shards = 0
            breaker_opens = 0
            quarantined = degraded = 0
            for entry in self._entries.values():
                if entry.matrix is not None and hasattr(
                    entry.matrix, "shard_loads"
                ):
                    shard_loads += entry.matrix.shard_loads
                    shard_evictions += entry.matrix.shard_evictions
                    resident_shards += entry.matrix.resident_shards
                matrix_stats = getattr(entry.matrix, "resilience_stats", None)
                if matrix_stats is not None:
                    inner = matrix_stats()
                    shard_retries += inner["shard_retries"]
                    shard_failures += inner["shard_failures"]
                    breaker_opens += inner["breaker_opens"]
                if entry.breaker is not None:
                    breaker_opens += entry.breaker.opens
                state = self._entry_state(entry)
                quarantined += state == "quarantined"
                degraded += state == "degraded"
            return {
                "matrices": len(self._entries),
                "resident": sum(e.resident for e in self._entries.values()),
                "resident_bytes": self.resident_bytes,
                "byte_budget": self._budget,
                "retain_plans": self._retain_plans,
                "lazy_shards": self._lazy_shards,
                "resident_shards": resident_shards,
                "shard_loads": shard_loads,
                "shard_evictions": shard_evictions,
                "shard_retries": shard_retries,
                "shard_failures": shard_failures,
                "hits": self.hits,
                "misses": self.misses,
                "loads": self.loads,
                "evictions": self.evictions,
                "load_retries": self.load_retries,
                "load_failures": self.load_failures,
                "header_reads": self.header_reads,
                "catalog_registrations": self.catalog_registrations,
                "mmap": self._mmap,
                "store": self._store is not None,
                "breaker_opens": breaker_opens,
                "quarantined": quarantined,
                "degraded": degraded,
            }
