"""Classic CSR and CSR-IV sparse baselines (Section 2 background).

``CSR`` stores, per non-zero, an 8-byte value and a 4-byte column index,
plus a ``first`` array of ``n + 1`` 4-byte row offsets — the paper notes
this exceeds the dense size for the near-dense inputs (Susy, Higgs,
Optical).

``CSR-IV`` (Kourtis et al., cited as [21]) replaces the value array with
2- or 4-byte indices into a distinct-value dictionary ``V``, paying off
when the matrix holds few distinct values — the stepping stone towards
the paper's CSRV.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import MatrixFormatError
from repro.formats.base import MatrixFormat, fill_out


class _ScipyBackedMatrix(MatrixFormat):
    """Shared machinery: store a scipy CSR matrix, multiply with it."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise MatrixFormatError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
        self._csr = sparse.csr_matrix(matrix)

    @classmethod
    def from_scipy(cls, matrix) -> _ScipyBackedMatrix:
        """Wrap an existing scipy sparse matrix without densifying.

        The deserialization entry point: the payload stores the CSR
        triplet arrays, so loading must not take the dense detour.
        """
        obj = cls.__new__(cls)
        obj._csr = sparse.csr_matrix(matrix)
        obj._init_derived()
        return obj

    def _init_derived(self) -> None:
        """Hook for subclasses that precompute statistics in __init__."""

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return self._csr.shape  # type: ignore[return-value]

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return int(self._csr.nnz)

    def scipy_csr(self) -> sparse.csr_matrix:
        """The backing scipy matrix (serialization reads its arrays)."""
        return self._csr

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense float64 array."""
        return self._csr.toarray()

    # -- kernels (scipy SpMV / SpMM) -----------------------------------------------

    def _right(self, x: np.ndarray, out, executor) -> np.ndarray:
        return fill_out(out, self._csr @ x)

    def _left(self, y: np.ndarray, out, executor) -> np.ndarray:
        return fill_out(out, self._csr.T @ y)


class CSRMatrix(_ScipyBackedMatrix):
    """Compressed Sparse Row: ``nz`` (8 B), ``idx`` (4 B), ``first`` (4 B)."""

    format_name = "csr"

    def size_breakdown(self) -> dict[str, int]:
        """Paper accounting: 12 bytes per non-zero + row offsets."""
        return {
            "nz": 8 * self.nnz,
            "idx": 4 * self.nnz,
            "first": 4 * (self.shape[0] + 1),
        }

    def size_bytes(self) -> int:
        return sum(self.size_breakdown().values())

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"


class CSRIVMatrix(_ScipyBackedMatrix):
    """CSR with indirect values: ``nz`` holds indices into ``V``.

    Entries of ``nz`` take 2 bytes when ``|V| < 2^16`` (the saving the
    paper quotes) and 4 bytes otherwise.
    """

    format_name = "csr_iv"

    def __init__(self, matrix: np.ndarray):
        super().__init__(matrix)
        self._init_derived()

    def _init_derived(self) -> None:
        self._n_distinct = int(np.unique(self._csr.data).size)

    @property
    def n_distinct(self) -> int:
        """Number of distinct non-zero values ``|V|``."""
        return self._n_distinct

    def size_breakdown(self) -> dict[str, int]:
        """2 or 4 bytes per value index + 4-byte columns + ``V`` doubles."""
        idx_width = 2 if self._n_distinct < (1 << 16) else 4
        return {
            "nz": idx_width * self.nnz,
            "idx": 4 * self.nnz,
            "first": 4 * (self.shape[0] + 1),
            "V": 8 * self._n_distinct,
        }

    def size_bytes(self) -> int:
        return sum(self.size_breakdown().values())

    def __repr__(self) -> str:
        return (
            f"CSRIVMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"|V|={self._n_distinct})"
        )
