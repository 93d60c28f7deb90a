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
    and asks a :class:`repro.serve.residency.Residency` for shard
    ``i``, which loads it on demand and keeps it in the one LRU the
    serving registry's whole matrices share: after every shard visit
    the coldest unpinned units are dropped until the budget holds, so
    the registry evicts *shards*, never the lazy matrix itself.
    Overlapping requests share their scans: a pass starts at the shard
    most recently started by any pass and wraps around, pins the shard
    it is visiting, waits for a load of that shard already in flight
    instead of starting a second one, and leaves a shard only once the
    other passes visiting it are done, so concurrent passes run in
    lockstep and each cold shard is loaded, decoded and planned once
    per scan.

Multiplication is scatter-gather over the row partition, through each
shard's own kernel hook: right multiplication fans the operand out to
every shard, which writes its rows of the result; left multiplication
slices the operand by shard row range and sums the per-shard row
vectors.  ``executor`` (a persistent
:class:`repro.serve.executor.BlockExecutor`) runs the per-shard work
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
from repro.obs.trace import span
from repro.resilience import faults as _faults
from repro.resilience.policy import check_deadline
from repro.shard.plan import ShardPlan, plan_shards


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

    def _map_shards(self, fn, executor) -> list:
        """``fn(shard, i)`` over every shard, results in row order.

        The parallel path — the caller's ``executor`` — needs every
        shard in memory at once.  The sequential path is a circular
        scan: it visits shards one at a time from :meth:`_scan_start`,
        wrapping around, brackets each visit with :meth:`_pin_shard` and
        :meth:`_after_shard` (the latter also when the visit fails),
        and places each result at its shard index, so callers combine
        the results in row order whatever the start.  The eager form
        starts at 0 and pins nothing.  The lazy form starts where the
        most recent pass started, so a request arriving mid-pass joins
        the shard in flight; the pin keeps the visited shard resident
        for the visit, and :meth:`_after_shard` waits for the shard's
        other visitors, releases the pin and streams unpinned cold
        shards back out, so one request never holds more than the
        byte budget plus the shard it is visiting.
        """
        if executor is not None:
            return executor.map_blocks(fn, self._all_shards())
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

    def _right(self, x: np.ndarray, out, executor) -> np.ndarray:
        # Each shard writes its row slice of ``out`` through its own
        # hook: the operands were validated once, at the public entry.
        if out is None:
            out = np.empty((self._shape[0],) + x.shape[1:], dtype=np.float64)
        self._map_shards(
            lambda s, i: s._right(
                x, out[self._offsets[i] : self._offsets[i + 1]], None
            ),
            executor,
        )
        return out

    def _left(self, y: np.ndarray, out, executor) -> np.ndarray:
        # The parts are summed in shard order once the pass ends, so the
        # result is bit-identical whatever shard the scan started at;
        # the call holds one part per shard until then.
        parts = self._map_shards(
            lambda s, i: s._left(
                y[self._offsets[i] : self._offsets[i + 1]], None, None
            ),
            executor,
        )
        if out is None:
            out = np.zeros((self._shape[1],) + y.shape[1:], dtype=np.float64)
        else:
            out[...] = 0.0
        for p in parts:
            out += p
        return out

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
    **build_opts,
) -> ShardedMatrix:
    """Compress ``source`` into a :class:`ShardedMatrix`.

    Either pass a precomputed :class:`~repro.shard.plan.ShardPlan`,
    which carries every shard's row range, format and build options,
    or the planner's sizing, format and build options (see
    :func:`~repro.shard.plan.plan_shards`), never both.  A shard whose
    plan leaves the format open is built with
    :func:`repro.core.blocked.compress_part`'s ``auto`` choice: RePair
    runs once and the smallest encoding is kept.  Shard builds are
    independent, so ``executor`` (a
    :class:`repro.serve.executor.BlockExecutor`) compresses them in
    parallel.
    """
    from repro import formats as _registry
    from repro.core.blocked import compress_part
    from repro.core.csrv import CSRVMatrix

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
    else:
        given = {
            "n_shards": n_shards, "target_rows": target_rows,
            "target_bytes": target_bytes, "format": format, **build_opts,
        }
        beside = [name for name, value in given.items() if value is not None]
        if beside:
            raise MatrixFormatError(
                "a plan fixes every shard's rows, format and build options; "
                f"got {', '.join(beside)} beside it"
            )
        if plan.shape != dense.shape:
            raise MatrixFormatError(
                f"plan is for shape {plan.shape}, matrix has {dense.shape}"
            )

    def build_one(spec, _i):
        block = dense[spec.row_start : spec.row_stop]
        if spec.format is None:
            return compress_part(
                CSRVMatrix.from_dense(block), "auto", **spec.build_opts
            )
        return _registry.compress(block, format=spec.format, **spec.build_opts)

    specs = list(plan.shards)
    if executor is not None:
        shards = executor.map_blocks(build_one, specs)
    else:
        shards = [build_one(spec, i) for i, spec in enumerate(specs)]
    return ShardedMatrix(shards, plan.shape)


class LazyShardedMatrix(_ShardFanout):
    """A sharded container file served shard-by-shard under a byte budget.

    Construction reads only the shard manifest (row ranges and byte
    ranges).  Shard ``i`` is the unit ``(self, i)`` of ``residency``
    (a :class:`repro.serve.residency.Residency`; a private one with no
    budget when none is given): it is deserialized on the first
    multiplication that needs it and evicted through the residency's
    one LRU, which also holds whole matrices and other lazy matrices'
    shards when the serving registry lends its own.  The residency is
    trimmed *between* shard visits on the sequential path and after
    the pass on the ``executor`` path (which needs all shards live at
    once; parallelism deliberately trades the in-request bound for
    speed).  The matrix itself stays servable while only a sliding
    window of shards is resident.

    Concurrent requests share one circular scan.  A sequential pass
    starts at the shard most recently started by any pass and wraps
    around, and *pins* the shard it is visiting.  With the residency's
    one load in flight per shard, a request arriving mid-pass joins
    the shard in flight, and a pass leaves a shard only once the other
    passes visiting it are done, so the passes run in lockstep and a
    cold shard is loaded, decoded and planned (one retained engine,
    :meth:`~repro.core.gcm.GrammarCompressedMatrix._get_engine`) once
    per scan rather than once per request.  Every wait is bounded by
    the waiting request's own deadline and records a ``shard.wait``
    span (``on="load"`` or ``on="visit"``).

    Shard loads are guarded by the residency's retries and one
    :class:`~repro.resilience.policy.CircuitBreaker` per shard: a
    failed load raises :class:`~repro.errors.ShardUnavailableError`,
    and a shard whose breaker is open is *quarantined* — it fails fast
    until the breaker half-opens and a probe load succeeds.  A shard
    whose decoded shape is not its manifest entry's ``(n_rows,
    n_cols)`` fails its load with
    :class:`~repro.errors.SerializationError`, as a CRC mismatch does
    (no retry, one breaker failure, a 503 when served): the kernels
    slice operands by the manifest's row offsets and do not check a
    shard's shape again.  The matrix keeps serving work that avoids
    quarantined shards.
    ``residency.state(matrix)`` reads ``healthy`` / ``degraded`` /
    ``quarantined`` from the shard breakers, and
    ``residency.stats()`` counts shard loads, evictions, retries and
    failures across every matrix sharing the residency.  Loads honour
    the ambient request deadline
    (:func:`repro.resilience.policy.deadline_scope`).
    """

    def __init__(
        self,
        path,
        residency=None,
        retain_plans: bool = False,
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
        if residency is None:
            from repro.serve.residency import Residency

            residency = Residency()
        #: where this matrix's shards live (shared with the registry's
        #: whole matrices when served).
        self.residency = residency
        self._retain_plans = bool(retain_plans)
        self._lock = threading.RLock()
        #: the most recent pass start, where the next pass joins.
        self._scan_head = 0
        self._mmap = bool(mmap)
        self._view: memoryview | None = None

    # -- shard loading ----------------------------------------------------------------

    @property
    def path(self):
        return self._path

    @property
    def resident_shards(self) -> int:
        """How many shards are currently loaded."""
        return len(self.residency.loaded(self))

    def _map_file(self) -> memoryview:
        """The shared read-only view over the mapped container file."""
        with self._lock:
            if self._view is None:
                from repro.io.mmap_io import map_view

                self._view = map_view(self._path)
            return self._view

    def _load_shard(self, i: int):
        """One load attempt: read, fault hook, deadline check, decode,
        and the decoded shard's shape against its manifest entry.

        In mmap mode the section is a zero-copy slice of the shared
        mapped view and its CRC footer is still verified
        (:func:`repro.io.mmap_io.loads_section_mmap`); the
        fault-injection hook is bypassed — it rewrites materialized
        ``bytes``, which a mapped region deliberately never becomes.
        Eviction then just drops the decoded views; the mapping stays
        alive (and any arrays handed out stay valid) through their
        ``.base`` chain until nothing references it.
        """
        from repro.io.serialize import check_shard_shape, loads_matrix

        entry = self._manifest[i]
        with span("shard.load", shard=i, mmap=self._mmap):
            if self._mmap:
                view = self._map_file()
                section = view[entry.offset : entry.offset + entry.length]
                check_deadline(f"shard {i} load of {self._path}")
                from repro.io.mmap_io import loads_section_mmap

                shard = loads_section_mmap(
                    section, source=f"{self._path}#shard{i}"
                )
            else:
                with open(self._path, "rb") as fh:
                    fh.seek(entry.offset)
                    blob = fh.read(entry.length)
                blob = _faults.on_read(
                    _faults.SITE_SHARD_LOAD, f"{self._path}#shard{i}", blob
                )
                check_deadline(f"shard {i} load of {self._path}")
                shard = loads_matrix(blob)
            return check_shard_shape(shard, entry, self._shape[1])

    def _shard(self, i: int):
        """Shard ``i`` from the residency, loaded when cold.

        Load failures surface as
        :class:`~repro.errors.ShardUnavailableError` carrying the shard
        index and its breaker's ``retry_after``.
        """

        def load():
            shard = self._load_shard(i)
            if self._retain_plans:
                shard.enable_plan_retention(True)
            return shard

        key = (self, i)
        try:
            # Warm path: no span — the request-level span already covers
            # it, and per-hit span churn would show up in the
            # obs_overhead gate.
            return self.residency.get(key, load, f"shard {i} of {self._path}")
        except CircuitOpenError as exc:
            raise ShardUnavailableError(
                f"shard {i} of {self._path} is quarantined: {exc}",
                shard=i,
                retry_after=exc.retry_after,
            ) from exc
        except DeadlineExceededError:
            raise
        except (ReproError, OSError) as exc:
            breaker = self.residency.breakers(self).get(i)
            raise ShardUnavailableError(
                f"shard {i} of {self._path} failed to load: "
                f"{type(exc).__name__}: {exc}",
                shard=i,
                retry_after=breaker.retry_after() if breaker else 0.0,
            ) from exc

    def _all_shards(self) -> list:
        return [self._shard(i) for i in range(self.n_shards)]

    def _loaded_shards(self) -> list:
        return [shard for shard, _charge in self.residency.loaded(self)]

    def _scan_start(self) -> int:
        """A new pass joins the scan at the most recently started shard."""
        with self._lock:
            return self._scan_head

    def _pin_shard(self, i: int) -> None:
        """Keep shard ``i`` resident while a pass visits it."""
        with self._lock:
            self._scan_head = i
        self.residency.pin((self, i))

    def _after_shard(self, i: int) -> None:
        """Release the visit's pin, once the other passes visiting shard
        ``i`` are done with it, and trim the residency to its budget."""
        self.residency.unpin((self, i))
        self.residency.trim()

    # -- budget hooks on the kernels ------------------------------------------------

    def _right(self, x: np.ndarray, out, executor) -> np.ndarray:
        try:
            return super()._right(x, out, executor)
        finally:
            self.residency.trim()

    def _left(self, y: np.ndarray, out, executor) -> np.ndarray:
        try:
            return super()._left(y, out, executor)
        finally:
            self.residency.trim()

    # -- accounting -------------------------------------------------------------------

    def size_bytes(self) -> int:
        """Serialized payload bytes over all shards (loaded or not)."""
        return sum(e.length for e in self._manifest)

    def size_breakdown(self) -> dict[str, int]:
        return {"shards": self.size_bytes()}

    def resident_footprint_bytes(self) -> int:
        """Live bytes right now: the charges of the loaded shards."""
        return sum(charge for _shard, charge in self.residency.loaded(self))

    def enable_plan_retention(self, retain: bool = True) -> bool:
        # The flag steers every future shard load, and loads happen on
        # whichever serving thread touches a cold shard first — the
        # write must be published under the same lock those loads hold.
        with self._lock:
            self._retain_plans = bool(retain)
        return super().enable_plan_retention(retain)

    def release_retained_plans(self) -> None:
        """Evict every loaded shard and drop the shard breakers."""
        self.residency.discard(self, breakers=True)

    def __repr__(self) -> str:
        return (
            f"LazyShardedMatrix(path={str(self._path)!r}, "
            f"shape={self._shape}, n_shards={self.n_shards}, "
            f"resident={self.resident_shards})"
        )
