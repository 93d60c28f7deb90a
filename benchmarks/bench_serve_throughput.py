"""Serving throughput: batched panel multiplication vs. looped MVMs.

The serving engine answers a ``k``-vector request with one panel
kernel call (:mod:`repro.serve.batch`) instead of ``k`` single MVMs.
This benchmark quantifies that win per representation, configured as
the server runs it — every matrix has plan retention on
(:meth:`~repro.formats.MatrixFormat.enable_plan_retention`, what
``MatrixRegistry`` does on load), so the grammar variants decode and
plan once, not per call.  For each format it times

- **looped** — ``k`` calls to ``right_multiply`` (the pre-batching
  access pattern: per-call operand checks and one pass of the kernel
  per vector), and
- **batched** — one ``batch_right_multiply`` over the same ``(m, k)``
  panel,

and reports both as vectors/second plus the speedup ratio.

``pytest benchmarks/bench_serve_throughput.py --benchmark-only`` times
the two paths; running as a script prints the full table for every
format (dense / csrv / re_32 / re_iv / re_ans / blocked-auto / cla).
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from repro.baselines import DenseMatrix
from repro.bench.reporting import format_table
from repro.cla import CLAMatrix
from repro.core.blocked import BlockedMatrix
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.serve.batch import batch_right_multiply

try:
    from benchmarks.conftest import bench_matrix
except ImportError:
    from conftest import bench_matrix

#: Panel width of the serving workload (ISSUE acceptance: k = 64).
K_VECTORS = 64

#: Datasets exercised in script mode.
DATASETS = ("census", "covtype")

#: Formats compared; ``blocked`` uses per-block auto format selection.
FORMATS = ("dense", "csrv", "re_32", "re_iv", "re_ans", "blocked", "cla")


def build(matrix: np.ndarray, fmt: str):
    """Compress ``matrix`` into the requested representation, with plan
    retention on as the server serves it."""
    if fmt == "dense":
        compressed = DenseMatrix(matrix)
    elif fmt == "csrv":
        compressed = CSRVMatrix.from_dense(matrix)
    elif fmt in ("re_32", "re_iv", "re_ans"):
        compressed = GrammarCompressedMatrix.compress(matrix, variant=fmt)
    elif fmt == "blocked":
        compressed = BlockedMatrix.compress(matrix, variant="auto", n_blocks=8)
    elif fmt == "cla":
        compressed = CLAMatrix.compress(matrix)
    else:
        raise ValueError(fmt)
    compressed.enable_plan_retention(True)
    return compressed


def looped_right_multiply(matrix, panel: np.ndarray) -> np.ndarray:
    """``k`` single MVMs in a Python loop — the pre-batching baseline.

    Every call re-pays the per-call fixed costs (operand checks, one
    pass of the kernel per vector) that :func:`batch_right_multiply`
    pays once for the whole ``(m, k)`` panel.
    """
    return np.stack(
        [matrix.right_multiply(panel[:, j]) for j in range(panel.shape[1])],
        axis=1,
    )


def _best_seconds(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time — robust to scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(compressed, panel: np.ndarray, repeats: int = 3) -> dict:
    """Throughput of the looped and batched paths on one panel."""
    result_batched = batch_right_multiply(compressed, panel)
    result_looped = looped_right_multiply(compressed, panel)
    assert np.allclose(result_batched, result_looped)
    k = panel.shape[1]
    t_loop = _best_seconds(lambda: looped_right_multiply(compressed, panel), repeats)
    t_batch = _best_seconds(lambda: batch_right_multiply(compressed, panel), repeats)
    return {
        "looped_vps": k / t_loop,
        "batched_vps": k / t_batch,
        "speedup": t_loop / t_batch,
    }


def _panel(matrix: np.ndarray, k: int = K_VECTORS) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.standard_normal((matrix.shape[1], k))


# -- pytest benchmarks ----------------------------------------------------------------


@pytest.mark.parametrize("fmt", FORMATS)
def test_batched_panel(benchmark, fmt):
    matrix = bench_matrix("census")
    compressed = build(matrix, fmt)
    panel = _panel(matrix)
    result = benchmark(lambda: batch_right_multiply(compressed, panel))
    assert result.shape == (matrix.shape[0], K_VECTORS)


@pytest.mark.parametrize("fmt", ("re_32", "re_iv", "re_ans"))
def test_looped_baseline(benchmark, fmt):
    matrix = bench_matrix("census")
    compressed = build(matrix, fmt)
    panel = _panel(matrix)
    result = benchmark(lambda: looped_right_multiply(compressed, panel))
    assert result.shape == (matrix.shape[0], K_VECTORS)


# -- script mode ----------------------------------------------------------------------


def main() -> int:
    for name in DATASETS:
        matrix = bench_matrix(name)
        panel = _panel(matrix)
        rows = []
        for fmt in FORMATS:
            compressed = build(matrix, fmt)
            m = measure(compressed, panel)
            rows.append(
                [
                    fmt,
                    f"{m['looped_vps']:,.0f}",
                    f"{m['batched_vps']:,.0f}",
                    f"{m['speedup']:.1f}x",
                ]
            )
        print(
            format_table(
                ["format", "looped vec/s", "batched vec/s", "speedup"],
                rows,
                title=(
                    f"{name} ({matrix.shape[0]}x{matrix.shape[1]}), "
                    f"k={K_VECTORS} right-multiplications, plan retention on"
                ),
            )
        )
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
