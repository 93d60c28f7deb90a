"""Protocol-level multiplication primitives for the iterative solvers.

Every algorithm in :mod:`repro.solve.algorithms` is built from four
products — ``A x``, ``yᵗ A``, the Gram product ``Aᵗ A x`` and their
panel variants — and nothing else, so the whole solver layer runs over
the uniform :class:`repro.formats.MatrixFormat` kernel surface: any
registered format (including :class:`repro.shard.ShardedMatrix` and the
lazily-served :class:`repro.shard.LazyShardedMatrix`) can execute any
algorithm.

:class:`SolveKernels` wraps one matrix for the lifetime of a solve:

- ``executor=`` is captured once and forwarded to every kernel call
  (formats without block/group parallelism ignore it, so callers never
  branch per format);
- plan retention is enabled **once up front** — grammar formats build
  their :class:`~repro.core.multiply.MvmPlan` on the first iteration and
  reuse it for the hundreds that follow, which is what makes iterating
  in compressed space competitive (see ``BENCH_hotpaths.json``'s
  cold/warm gap);
- the panel variants reuse ``out=`` workspaces across iterations — the
  ``(n, k)`` and ``(m, k)`` buffers of a subspace iteration are
  allocated on the first call and rewritten in place afterwards.
"""

from __future__ import annotations

import numpy as np


class SolveKernels:
    """The multiplication surface one solver run iterates over.

    Parameters
    ----------
    matrix:
        Any :class:`repro.formats.MatrixFormat` (or duck-typed object
        with ``shape`` and ``right_multiply`` / ``left_multiply`` /
        panel entries that take ``executor=``, as the protocol's do).
    executor:
        Captured once; forwarded to every kernel call.  A
        :class:`repro.serve.executor.BlockExecutor` shared across the
        whole solve (the serving configuration — pool startup paid
        once, reused every iteration).
    retain_plans:
        Enable multiplication-plan retention on the matrix before the
        first iteration (default ``True``).  A no-op for formats with
        nothing to retain.

    Each panel product is one kernel call, whatever its width: the
    kernels bound their own workspace (the grammar engine runs wide
    panels in :data:`~repro.core.multiply.PANEL_COLUMNS`-column chunks).
    """

    def __init__(self, matrix, executor=None, retain_plans: bool = True):
        self.matrix = matrix
        self.executor = executor
        n, m = matrix.shape
        self.n_rows, self.n_cols = int(n), int(m)
        if retain_plans:
            enable = getattr(matrix, "enable_plan_retention", None)
            if enable is not None:
                enable(True)
        # ``out=`` workspaces for the panel variants, keyed by width so
        # a solver that always asks the same k never reallocates.
        self._right_out: np.ndarray | None = None
        self._left_out: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    # -- single-vector products ----------------------------------------------------

    def right(self, x: np.ndarray) -> np.ndarray:
        """``A x`` — vector of length ``n_rows``."""
        return self.matrix.right_multiply(x, executor=self.executor)

    def left(self, y: np.ndarray) -> np.ndarray:
        """``yᵗ A`` (equivalently ``Aᵗ y``) — vector of length ``n_cols``."""
        return self.matrix.left_multiply(y, executor=self.executor)

    def gram(self, x: np.ndarray, normalize: bool = False) -> np.ndarray:
        """The Gram product ``Aᵗ A x`` (two protocol kernels, no ``AᵗA``).

        ``normalize=True`` scales by ``1 / n_rows`` — the covariance
        form ``(AᵗA / n) x`` regression solvers iterate on, keeping the
        operator's spectrum independent of the row count.
        """
        z = self.left(self.right(x))
        if normalize:
            z /= self.n_rows
        return z

    def row_sums(self) -> np.ndarray:
        """``A · 1`` — per-row sums, computed in the compressed domain.

        PageRank's row-stochastic scaling needs the out-weight of every
        row; one right multiplication by the ones vector gives all of
        them without decompressing anything.
        """
        return self.right(np.ones(self.n_cols, dtype=np.float64))

    # -- panel products --------------------------------------------------------------

    def _panel_out(self, which: str, rows: int, k: int) -> np.ndarray:
        attr = f"_{which}_out"
        out = getattr(self, attr)
        if out is None or out.shape != (rows, k):
            out = np.empty((rows, k), dtype=np.float64)
            setattr(self, attr, out)
        return out

    def right_panel(self, panel: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A X`` for an ``(n_cols, k)`` panel, into a reused workspace.

        The returned array is owned by this object (unless ``out`` is
        passed) and rewritten by the next same-width call — copy it if
        it must survive the iteration.
        """
        panel = np.asarray(panel, dtype=np.float64)
        if out is None:
            out = self._panel_out("right", self.n_rows, panel.shape[1])
        return self.matrix.right_multiply_matrix(
            panel, out=out, executor=self.executor
        )

    def left_panel(self, panel: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``Yᵗ A`` for an ``(n_rows, k)`` panel (same reuse contract)."""
        panel = np.asarray(panel, dtype=np.float64)
        if out is None:
            out = self._panel_out("left", self.n_cols, panel.shape[1])
        return self.matrix.left_multiply_matrix(
            panel, out=out, executor=self.executor
        )

    def gram_panel(self, panel: np.ndarray, normalize: bool = False) -> np.ndarray:
        """``Aᵗ A X`` for an ``(n_cols, k)`` panel, both workspaces reused.

        The result aliases the internal left workspace; the subspace
        iteration copies it through its QR factorisation anyway.
        """
        z = self.left_panel(self.right_panel(panel))
        if normalize:
            z /= self.n_rows
        return z
