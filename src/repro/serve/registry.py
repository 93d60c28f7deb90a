"""A named store of compressed matrices with lazy loading and LRU eviction.

The serving engine addresses matrices by name; behind each name is a
``.gcmx`` file (:mod:`repro.io.serialize`).  The registry is the memory
manager between the two:

- **listing is free** — :func:`repro.io.serialize.read_matrix_info`
  parses only the file header, so ``/matrices`` never loads anything;
- **loading is lazy** — a matrix is deserialized on its first
  multiplication request and kept resident;
- **residency is budgeted** — the registry owns one
  :class:`~repro.serve.residency.Residency`: whole matrices and the
  shards of lazily served sharded matrices share its one
  least-recently-*used* order under one optional byte budget, so a
  lazy matrix loses cold shards, never itself.  The matrix a request
  asked for is never evicted on its own behalf: a single matrix larger
  than the budget stays resident alone, so every registered matrix
  remains servable.

The budget charge is :func:`resident_estimate` — ``size_bytes()``
*plus* each format's self-reported
:meth:`~repro.formats.MatrixFormat.resident_overhead_bytes` (a CSRV
block caches its decoded views and the scipy CSR its kernels run on;
a grammar variant charges its retained
:class:`~repro.core.multiply.MvmEngine`, plan and bound weights — ``re_32``
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

All operations are thread-safe, and loads happen outside every lock
(the residency keeps one load in flight per matrix, and a request
waiting on it gives up at its own deadline): a slow cold load of one
matrix never stalls requests for already-resident ones.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.errors import ReproError, SerializationError
from repro.io.serialize import (
    ShardManifestEntry,
    format_of_info,
    load_matrix,
    read_matrix_info,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.resilience.policy import RetryPolicy
from repro.serve.residency import Residency, resident_estimate

#: File suffix scanned by :meth:`MatrixRegistry.scan`.
GCMX_SUFFIX = ".gcmx"


@dataclass
class RegistryEntry:
    """One registered matrix: its file and header info."""

    name: str
    path: Path
    info: dict = field(default_factory=dict)
    #: shard placement from the store catalog — lets a lazy sharded
    #: load skip the manifest read entirely (``None`` = read from file).
    manifest: list[ShardManifestEntry] | None = None


class MatrixRegistry:
    """Named ``.gcmx`` matrices with lazy loading and byte-budgeted LRU.

    Parameters
    ----------
    root:
        Optional directory to :meth:`scan` for ``*.gcmx`` files at
        construction (each file registers under its stem).
    byte_budget:
        Optional cap on the summed :func:`resident_estimate` of
        resident matrices and shards; ``None`` disables eviction.
    retain_plans:
        Enable multiplication-plan retention on every loaded matrix
        (default ``True`` — the serving configuration).  The retained
        plans are charged against ``byte_budget`` through each format's
        ``resident_overhead_bytes``.
    lazy_shards:
        Serve ``"sharded"`` container files through
        :class:`repro.shard.LazyShardedMatrix` (default ``True``):
        only the shard manifest is read at load time, and shard
        payloads stream in on demand as units of this registry's
        :attr:`residency`, so cold *shards* are evicted under
        ``byte_budget`` alongside whole matrices.  ``False``
        materialises sharded entries whole, like any other format.
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
        self._retain_plans = bool(retain_plans)
        self._lazy_shards = bool(lazy_shards)
        self._lock = threading.RLock()
        self._entries: dict[str, RegistryEntry] = {}
        self._mmap = bool(mmap)
        self._store: Any = None
        #: the single sink for every counter this registry keeps; the
        #: server adopts it so ``/metrics`` scrapes one registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: every loaded matrix and shard, in one LRU under the budget.
        self.residency = Residency(
            byte_budget,
            retry_policy=retry_policy,
            breaker_threshold=breaker_threshold,
            breaker_reset=breaker_reset,
            metrics=self.metrics,
        )
        lookups = self.metrics.counter(
            "repro_registry_lookups_total",
            "Registry lookups by result (hit = already resident).",
            labels=("result",),
        )
        self._c_hits = lookups.labels(result="hit")
        self._c_misses = lookups.labels(result="miss")
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
        self.metrics.register_collector(self._collect_metrics)
        if root is not None:
            self.scan(root)
        if store is not None:
            self.register_store(store)

    def _collect_metrics(self) -> None:
        """Scrape-time collector: the residency gauges."""
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
            return self._add_locked(RegistryEntry(name=name, path=path, info=info))

    def _add_locked(self, entry: RegistryEntry) -> RegistryEntry:
        # A re-registered name may point at a replaced file: its old
        # matrix goes with its retained plans, and a fresh breaker
        # guards the new file.
        self.residency.discard(entry.name, breakers=True)
        self._entries[entry.name] = entry
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
            return self._add_locked(
                RegistryEntry(
                    name=record.name,
                    path=Path(record.path),
                    info=record.info(),
                    manifest=manifest,
                )
            )

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
        """Registered names, in registration order."""
        with self._lock:
            return list(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def describe(self, name: str) -> dict:
        """Header info plus residency and health for one matrix (no load)."""
        with self._lock:
            entry = self._require(name)
        matrix = self.residency.peek((name, None))
        out = {"name": name, "path": str(entry.path), **entry.info}
        out["format"] = format_of_info(entry.info)
        out["resident"] = matrix is not None
        # The matrix's own breaker, and a lazy matrix's shard breakers.
        out["state"] = self.residency.state(name, matrix)
        if matrix is not None:
            out["resident_bytes"] = resident_estimate(matrix)
            resident_shards = getattr(matrix, "resident_shards", None)
            if resident_shards is not None:
                out["resident_shards"] = resident_shards
        return out

    def entries(self) -> list[dict]:
        """:meth:`describe` for every registered matrix (sorted by name)."""
        return [self.describe(name) for name in sorted(self.names())]

    def _require(self, name: str) -> RegistryEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise SerializationError(f"no matrix registered under {name!r}")
        return entry

    # -- loading and eviction -------------------------------------------------------

    def get(self, name: str) -> Any:
        """Return the matrix behind ``name``, loading it if needed.

        One :meth:`~repro.serve.residency.Residency.get` of the unit
        ``(name, None)``: a resident matrix is marked most recently
        used; otherwise it is loaded (or, while another request loads
        it, awaited within this request's deadline) and the budget is
        trimmed, never evicting ``name`` itself.  The disk read and
        deserialization run outside every lock, so concurrent requests
        for resident matrices are never stalled by a cold load.

        The load path is guarded: transient ``OSError`` reads retry
        under the registry's :class:`~repro.resilience.policy.RetryPolicy`,
        and every matrix has a circuit breaker — after
        ``breaker_threshold`` consecutive load failures it is
        quarantined and requests fail fast with
        :class:`~repro.errors.CircuitOpenError` (HTTP 503 +
        ``Retry-After``) until the breaker half-opens.  Other matrices
        are unaffected: a corrupt file never takes the registry down.
        """
        with span("registry.get", matrix=name) as sp:
            with self._lock:
                entry = self._require(name)
            started: list[float] = []

            def load() -> Any:
                if not started:  # retries call again: one miss per load
                    started.append(perf_counter())
                    self._c_misses.inc()
                matrix = self._load_entry(entry)
                if self._retain_plans:
                    # Served matrices multiply repeatedly: switch formats
                    # that rebuild their multiplication schedule per call
                    # into build-once retention *before* the residency
                    # charges the matrix, so the charge includes the plan.
                    matrix.enable_plan_retention(True)
                return matrix

            key = (name, None)
            matrix = self.residency.get(key, load, f"matrix {name!r}")
            sp.set("hit", not started)
            if not started:
                self._c_hits.inc()
                return matrix
            self._h_load_seconds.observe(perf_counter() - started[0])
            self.residency.trim(keep=key)
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
                    residency=self.residency,
                    manifest=entry.manifest,
                    shape=tuple(shape) if shape is not None else None,
                    mmap=self._mmap,
                )
            return load_matrix(entry.path, mmap=self._mmap)

    def evict(self, name: str) -> bool:
        """Drop ``name``'s resident matrix (keeps the registration)."""
        with self._lock:
            self._require(name)
        return self.residency.discard(name) > 0

    def enforce_budget(self, keep: str | None = None) -> int:
        """Trim the residency to the byte budget, keeping ``keep``.

        The serving layer calls this after answering a request for
        ``keep``.  Returns the number of units (matrices or shards)
        evicted.
        """
        return self.residency.trim(keep=None if keep is None else (keep, None))

    # -- accounting -------------------------------------------------------------------

    @property
    def byte_budget(self) -> int | None:
        """The configured residency budget (``None`` = unlimited)."""
        return self.residency.byte_budget

    @property
    def retain_plans(self) -> bool:
        """Whether loaded matrices keep their multiplication plans."""
        return self._retain_plans

    @property
    def resident_bytes(self) -> int:
        """Summed charges of the resident matrices and shards."""
        return self.residency.resident_bytes

    def stats(self) -> dict[str, Any]:
        """Counters for ``/stats``: the residency's (:meth:`Residency.stats`),
        lookups, registrations, and the entries' health."""
        residency = self.residency
        with self._lock:
            names = list(self._entries)
            store = self._store
        quarantined = degraded = 0
        for name in names:
            state = residency.state(name, residency.peek((name, None)))
            quarantined += state == "quarantined"
            degraded += state == "degraded"
        return {
            "matrices": len(names),
            "retain_plans": self._retain_plans,
            "lazy_shards": self._lazy_shards,
            "hits": int(self._c_hits.value),
            "misses": int(self._c_misses.value),
            "header_reads": int(self._c_header_reads.value),
            "catalog_registrations": int(self._c_catalog_registrations.value),
            "mmap": self._mmap,
            "store": store is not None,
            "quarantined": quarantined,
            "degraded": degraded,
            **residency.stats(),
        }
