"""A persistent thread pool for row-partitioned and column-group work.

The seed reproduction *simulated* multithreading: it timed each row
block sequentially and scheduled the durations with the LPT rule
(:mod:`repro.bench.parallel`).  :class:`BlockExecutor` is the real
counterpart — a thread pool built once and reused across requests that
maps one callable over the parts of a matrix.  The matrices own their
scatter-gather and call :meth:`BlockExecutor.map_blocks` when a caller
passes ``executor=``: the row shards of a
:class:`repro.shard.ShardedMatrix` (the Section 4.1 row blocks of a
:class:`repro.core.blocked.BlockedMatrix` among them) and the column
groups of a :class:`repro.cla.CLAMatrix`.

Pool startup is paid at server start, not per multiply.  Workers share
output buffers (panel results are written into disjoint row slices of
one preallocated array), but the numpy kernels hold the GIL for part of
their runtime, so the speedup is bounded by how much of the work
releases it.  ``workers=1`` runs inline (no pool at all) — the timed
sequential mode that the LPT simulation consumes.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import MatrixFormatError
from repro.obs.trace import TraceContext, activate_context, capture_context


def _call_in_context(ctx: TraceContext | None, fn, *args):
    """Run ``fn`` under a carried trace context (the executor-hop shim).

    Worker spans attach to the submitting request's trace as children
    of the submitting span.
    """
    with activate_context(ctx):
        return fn(*args)


def _timed_call(fn, block, i: int):
    start = time.perf_counter()
    result = fn(block, i)
    return result, time.perf_counter() - start


class BlockExecutor:
    """A persistent thread pool mapping a callable over matrix parts.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()``.  ``1`` executes
        inline without creating a pool.

    Every registered format accepts the executor through the
    ``executor=`` keyword of its multiply methods; formats without
    parts to distribute ignore it.  Use as a context manager, or call
    :meth:`shutdown` explicitly.
    """

    def __init__(self, workers: int | None = None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise MatrixFormatError(f"workers must be >= 1, got {workers}")
        self._workers = int(workers)
        self._pool: ThreadPoolExecutor | None = None
        # Guards lazy creation: the server shares one executor across
        # request threads, and two simultaneous first requests must
        # not each build (and one leak) a pool.
        self._pool_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Configured pool size."""
        return self._workers

    def __repr__(self) -> str:
        return f"BlockExecutor(workers={self._workers})"

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self._workers)
            return self._pool

    def shutdown(self) -> None:
        """Tear down the pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> BlockExecutor:
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # -- mapping -----------------------------------------------------------------

    def map_blocks(self, fn, blocks) -> list:
        """Apply ``fn(block, i)`` to every block; results in block order."""
        if self._workers == 1 or len(blocks) <= 1:
            return [fn(b, i) for i, b in enumerate(blocks)]
        pool = self._get_pool()
        ctx = capture_context()
        futures = [
            pool.submit(_call_in_context, ctx, fn, b, i)
            for i, b in enumerate(blocks)
        ]
        return [f.result() for f in futures]

    def timed_map_blocks(self, fn, blocks) -> tuple[list, list[float], float]:
        """Like :meth:`map_blocks`, also timing each block and the batch.

        Returns ``(results, per_block_seconds, wall_seconds)``.  The
        per-block durations are measured inside the workers; the wall
        time is the *measured makespan* of the batch — the quantity the
        LPT simulation (:func:`repro.bench.parallel.lpt_makespan`)
        predicts from the durations.
        """
        start = time.perf_counter()
        if self._workers == 1 or len(blocks) <= 1:
            pairs = [_timed_call(fn, b, i) for i, b in enumerate(blocks)]
        else:
            pool = self._get_pool()
            ctx = capture_context()
            futures = [
                pool.submit(_call_in_context, ctx, _timed_call, fn, b, i)
                for i, b in enumerate(blocks)
            ]
            pairs = [f.result() for f in futures]
        wall = time.perf_counter() - start
        results = [r for r, _ in pairs]
        durations = [d for _, d in pairs]
        return results, durations, wall
