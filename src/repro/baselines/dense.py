"""The uncompressed dense baseline.

The paper expresses every compression ratio as a percentage of the
"uncompressed and full representation" of ``rows × cols × 8`` bytes
(8-byte doubles).  :class:`DenseMatrix` is that reference point,
speaking the same :class:`repro.formats.MatrixFormat` protocol as all
other representations so harness code is uniform.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixFormatError
from repro.formats.base import MatrixFormat


class DenseMatrix(MatrixFormat):
    """A plain float64 matrix with the common representation interface."""

    format_name = "dense"

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise MatrixFormatError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
        self._m = np.ascontiguousarray(matrix)

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return self._m.shape  # type: ignore[return-value]

    def to_dense(self) -> np.ndarray:
        """Return (a copy of) the stored matrix."""
        return self._m.copy()

    # -- kernels (all BLAS) --------------------------------------------------------

    def _right_vector(self, x: np.ndarray, executor) -> np.ndarray:
        return self._m @ x

    def _left_vector(self, y: np.ndarray, executor) -> np.ndarray:
        return y @ self._m

    def _right_panel_kernel(self, executor):
        return lambda panel, out: np.matmul(self._m, panel, out=out)

    def _left_panel_kernel(self, executor):
        return lambda panel, out: np.matmul(self._m.T, panel, out=out)

    # -- accounting ----------------------------------------------------------------

    def size_bytes(self) -> int:
        """``rows × cols × 8`` — the denominator of all paper ratios."""
        return int(self._m.shape[0] * self._m.shape[1] * 8)

    def size_breakdown(self) -> dict[str, int]:
        """A single component: the raw doubles."""
        return {"data": self.size_bytes()}

    def __repr__(self) -> str:
        return f"DenseMatrix(shape={self._m.shape})"
