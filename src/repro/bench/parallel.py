"""LPT schedule modelling for the multithread timing benchmarks.

The seed reproduction could only simulate the paper's multithread
timings (Figure 3, Tables 2 and 4) because its numpy kernels held the
GIL.  Each grammar level now runs in scipy's compiled sparse kernels,
which release it, so the real pool,
:class:`~repro.serve.executor.BlockExecutor`, measures a speedup: on a
2-core machine, two row blocks of ``mnist2m`` multiplied 1.38× faster
at ``k=64`` and 1.61× faster at ``k=1`` on 2 workers than serially.
The figure and table benchmarks still report the model below.  The
simulated multiplies here run each row block or shard of a
:class:`~repro.shard.ShardedMatrix` (a
:class:`~repro.core.blocked.BlockedMatrix` included) through it
sequentially (``workers=1``), so each part's duration is measured in
isolation.

What remains native here is the *model*: :func:`lpt_makespan`
schedules measured per-block durations onto ``t`` ideal workers with
the classic Longest-Processing-Time greedy rule.  That stays useful as
a planning utility — it predicts what a work-stealing pool converges
to for independent tasks, and ``tests/serve/test_executor.py`` pins
its predictions against the measured makespan ordering of the real
pool.  Benchmarks that want measured (not modelled) parallel timings
use ``parallel_model="executor"`` in :func:`repro.bench.harness.run_iterations`.

Numerical results are unaffected — only the *reported* time differs
between the real-pool and simulated modes.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import MatrixFormatError


def lpt_makespan(durations: Sequence[float], workers: int) -> float:
    """Makespan of the LPT greedy schedule on ``workers`` machines.

    >>> lpt_makespan([4.0, 3.0, 2.0, 1.0], 2)
    5.0
    >>> lpt_makespan([1.0, 1.0, 1.0], 1)
    3.0
    """
    if workers < 1:
        raise MatrixFormatError(f"workers must be >= 1, got {workers}")
    if not len(durations):
        return 0.0
    loads = [0.0] * min(workers, len(durations))
    heapq.heapify(loads)
    for d in sorted(durations, reverse=True):
        heapq.heappush(loads, heapq.heappop(loads) + float(d))
    return max(loads)


def timed_block_map(blocks: Sequence, fn: Callable) -> tuple[list, list[float]]:
    """Apply ``fn`` to every block sequentially, timing each call.

    Returns ``(results, per_block_seconds)``.  Delegates to the real
    executor's timed map with ``workers=1`` — sequential execution, so
    each block's duration is measured without interference from the
    others (the input the LPT model needs).
    """
    from repro.serve.executor import BlockExecutor

    results, durations, _wall = BlockExecutor(workers=1).timed_map_blocks(
        fn, list(blocks)
    )
    return results, durations


def simulated_right_multiply(matrix, x: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """``y = M x`` over a row-partitioned matrix with per-part timing."""
    x = np.asarray(x, dtype=np.float64).ravel()
    parts, durations = timed_block_map(
        matrix.shards, lambda s, _i: s.right_multiply(x)
    )
    return np.concatenate(parts), durations


def simulated_left_multiply(matrix, y: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """``xᵗ = yᵗ M`` over a row-partitioned matrix with per-part timing."""
    y = np.asarray(y, dtype=np.float64).ravel()
    offsets = matrix.row_offsets
    parts, durations = timed_block_map(
        matrix.shards,
        lambda s, i: s.left_multiply(y[offsets[i] : offsets[i + 1]]),
    )
    out = np.zeros(matrix.shape[1], dtype=np.float64)
    for p in parts:
        out += p
    return out, durations
