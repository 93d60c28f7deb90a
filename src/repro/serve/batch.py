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
protocol, whose panel entries run the same one kernel per direction as
a single vector, so a batch is one call to the matrix's own panel
entry, with no dispatch here: formats with parts to distribute (row
shards and blocks, column groups) fan their work out over the caller's
persistent :class:`~repro.serve.executor.BlockExecutor`, and the rest
ignore it.  The grammar kernel bounds its own workspace: its stacked
vector ``[x; W]`` is ``(m + |R|, k)`` doubles, so it runs wide panels
in :data:`~repro.core.multiply.PANEL_COLUMNS`-column chunks over one
engine (one storage decode per request, not one per chunk).
"""

from __future__ import annotations

import numpy as np

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


def _batched(matrix, vectors, direction: str, executor=None) -> np.ndarray:
    operand_len = matrix.shape[1] if direction == "right" else matrix.shape[0]
    panel = as_panel(vectors, operand_len, "x" if direction == "right" else "y")
    method = getattr(matrix, f"{direction}_multiply_matrix")
    return method(panel, executor=executor)


def batch_right_multiply(matrix, vectors, executor=None) -> np.ndarray:
    """``Y = M X`` for a batch of vectors, one panel kernel call.

    ``vectors`` is anything :func:`as_panel` accepts; the result has
    shape ``(n_rows, k)``.  ``executor`` (a
    :class:`~repro.serve.executor.BlockExecutor`) is forwarded to the
    matrix's panel kernel, which distributes its row shards, blocks or
    column groups over it.
    """
    return _batched(matrix, vectors, "right", executor)


def batch_left_multiply(matrix, vectors, executor=None) -> np.ndarray:
    """``Xᵗ = Yᵗ M`` for a batch of vectors; result ``(n_cols, k)``."""
    return _batched(matrix, vectors, "left", executor)
