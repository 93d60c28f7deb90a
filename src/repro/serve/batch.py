"""Batched panel multiplication across every matrix representation.

The serving engine's headline throughput win: a request carrying ``k``
vectors is answered with **one** panel multiplication ``Y = M X``
instead of ``k`` single MVMs.  For the grammar-compressed variants this
amortises the per-call costs across the whole panel: the chain of
level mat-vecs runs once over all ``k`` columns, and without plan
retention the ``re_iv`` unpack / ``re_ans`` entropy decode of ``C`` and
the plan build are paid once instead of ``k`` times (see
:meth:`repro.core.multiply.MvmEngine.right`).

Every representation speaks the :class:`repro.formats.MatrixFormat`
protocol — panel kernels exist for all of them (native where the format
has one, a correct per-column fallback otherwise) — so dispatch here is
a *capability query* against the format registry, not a type switch:
formats whose spec advertises ``supports_executor`` (row blocks, column
groups) fan their work out over the caller's persistent
:class:`~repro.serve.executor.BlockExecutor`; the rest run their native
kernel with ``threads`` forwarded.

``panel_width`` bounds the batched workspace: the grammar kernel's
stacked vector ``[x; W]`` is ``(m + |R|, k)`` doubles, so very wide
panels on very large grammars are chunked into panels of at most that
many columns
(the kernel — and any storage decode it implies — is built once and
reused across chunks).
"""

from __future__ import annotations

import numpy as np

from repro import formats
from repro.errors import MatrixFormatError


def as_panel(vectors, length: int, name: str = "x") -> np.ndarray:
    """Coerce request vectors into an ``(length, k)`` float64 panel.

    Accepts a single vector (1-D, ``k=1``), an already-transposed
    ``(length, k)`` array, or — the JSON request layout — a list of
    ``k`` row vectors of size ``length`` (a ``(k, length)`` array,
    which is transposed).
    """
    panel = np.asarray(vectors, dtype=np.float64)
    if panel.ndim == 1:
        panel = panel[:, None]
    if panel.ndim != 2:
        raise MatrixFormatError(
            f"{name} must be a vector or a batch of vectors, got ndim={panel.ndim}"
        )
    if panel.shape[0] != length:
        if panel.shape[1] == length:
            panel = np.ascontiguousarray(panel.T)
        else:
            raise MatrixFormatError(
                f"{name} has shape {panel.shape}, expected ({length}, k) "
                f"or (k, {length})"
            )
    return panel


def _batched(
    matrix,
    vectors,
    direction: str,
    executor=None,
    threads: int = 1,
    panel_width: int | None = None,
) -> np.ndarray:
    operand_len = matrix.shape[1] if direction == "right" else matrix.shape[0]
    panel = as_panel(vectors, operand_len, "x" if direction == "right" else "y")
    if panel_width is not None and panel_width < 1:
        raise MatrixFormatError(
            f"panel_width must be >= 1, got {panel_width}"
        )
    spec = formats.spec_for(matrix)
    if executor is not None and spec.supports_executor:
        # The executor owns the pool-aware panel path: it knows which
        # worker functions a process pool can pickle and writes thread
        # -pool results into disjoint slices of one output.
        method = getattr(executor, f"{direction}_multiply_panel")
        k = panel.shape[1]
        if panel_width is None or k <= panel_width:
            return method(matrix, panel)
        return np.hstack(
            [
                method(matrix, panel[:, lo : lo + panel_width])
                for lo in range(0, k, panel_width)
            ]
        )
    # Uniform protocol kernel: native panel implementations chunk over
    # one kernel build (for re_iv/re_ans that is one storage decode per
    # request, not one per chunk); formats without block/group
    # parallelism simply ignore ``threads``.
    method = getattr(matrix, f"{direction}_multiply_matrix")
    return method(panel, threads=threads, panel_width=panel_width)


def batch_right_multiply(
    matrix,
    vectors,
    executor=None,
    threads: int = 1,
    panel_width: int | None = None,
) -> np.ndarray:
    """``Y = M X`` for a batch of vectors, one panel kernel call.

    ``vectors`` is anything :func:`as_panel` accepts; the result has
    shape ``(n_rows, k)``.  ``executor`` (a
    :class:`~repro.serve.executor.BlockExecutor`) or ``threads`` are
    forwarded to representations whose registry spec advertises
    block/group parallelism; ``panel_width`` caps the per-call
    workspace.
    """
    return _batched(matrix, vectors, "right", executor, threads, panel_width)


def batch_left_multiply(
    matrix,
    vectors,
    executor=None,
    threads: int = 1,
    panel_width: int | None = None,
) -> np.ndarray:
    """``Xᵗ = Yᵗ M`` for a batch of vectors; result ``(n_cols, k)``."""
    return _batched(matrix, vectors, "left", executor, threads, panel_width)


def looped_right_multiply(matrix, vectors) -> np.ndarray:  # ra: executor — deliberately serial pre-batching baseline for the throughput benchmark
    """``k`` single MVMs in a Python loop — the pre-batching baseline.

    Kept as the comparison point for
    ``benchmarks/bench_serve_throughput.py``: every call re-pays the
    per-call fixed costs (operand checks, one pass of the level chain
    per vector, and without plan retention the plan build and the
    ``re_iv`` unpack / ``re_ans`` decode) that
    :func:`batch_right_multiply` pays once.
    """
    panel = as_panel(vectors, matrix.shape[1], "x")
    return np.stack(
        [matrix.right_multiply(panel[:, j]) for j in range(panel.shape[1])],
        axis=1,
    )


def looped_left_multiply(matrix, vectors) -> np.ndarray:  # ra: executor — deliberately serial pre-batching baseline for the throughput benchmark
    """``k`` single left MVMs in a Python loop (benchmark baseline)."""
    panel = as_panel(vectors, matrix.shape[0], "y")
    return np.stack(
        [matrix.left_multiply(panel[:, j]) for j in range(panel.shape[1])],
        axis=1,
    )
