"""The Compressed Sparse Row/Value (CSRV) matrix representation.

Section 2 of the paper defines CSRV as a modification of CSR: the value
and column-index arrays are fused into a single sequence ``S`` of pairs
``⟨ℓ, j⟩`` (value-index, column), with a special ``$`` symbol terminating
every row, plus a small array ``V`` of the distinct non-zero values.

Following the paper's prototype (Section 4) each element of ``S`` is a
single integer: ``$`` is encoded as ``0`` and the pair ``⟨ℓ, j⟩`` as
``1 + ℓ·m + j`` where ``m`` is the number of columns.  The paper stores
these as 32-bit words, so :meth:`CSRVMatrix.size_bytes` charges
``4·|S| + 8·|V|`` bytes.

Both multiplication directions are single scans of ``S``:

- right: ``y[i] += V[ℓ]·x[j]`` for each pair in row ``i``;
- left:  ``x[j] += y[i]·V[ℓ]``.

Here both run as scipy's compiled CSR kernels over a cached CSR view
of the decoded pairs (row-major ``S`` *is* a CSR layout once ``ℓ`` is
replaced by ``V[ℓ]``), for a vector and a panel alike.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import MatrixFormatError
from repro.formats.base import MatrixFormat, fill_out

#: Integer code of the row separator ``$`` inside ``S``.
ROW_SEPARATOR = 0


class CSRVMatrix(MatrixFormat):
    """A matrix stored as the CSRV pair ``(S, V)``.

    Instances are immutable.  Use the class methods
    :meth:`from_dense` / :meth:`from_arrays` to build one, or
    :meth:`split_rows` to partition into row blocks (sharing ``V``).

    Parameters
    ----------
    s:
        Integer sequence with ``0`` as row separator and positive codes
        ``1 + ℓ·m + j`` for non-zeros.
    values:
        The distinct non-zero value array ``V`` (float64).
    shape:
        ``(n_rows, n_cols)`` of the represented matrix.
    """

    format_name = "csrv"

    def __init__(self, s: np.ndarray, values: np.ndarray, shape: tuple[int, int]):
        self._s = np.ascontiguousarray(s, dtype=np.int64)
        self._values = np.ascontiguousarray(values, dtype=np.float64)
        self._shape = (int(shape[0]), int(shape[1]))
        self._validate()
        # Working views: "decoded" -> the (row, ℓ, j) triple, "csr" ->
        # the scipy CSR view.  Each is published with one store.
        self._cache: dict[str, Any] = {}

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_dense(
        cls,
        matrix: np.ndarray,
        column_order: Sequence[int] | np.ndarray | None = None,
    ) -> CSRVMatrix:
        """Build the CSRV representation of a dense matrix.

        Parameters
        ----------
        matrix:
            2-D array; zeros are dropped.
        column_order:
            Optional permutation of ``range(m)``.  When given, the pairs
            of each row are laid out in ``S`` following this column
            order, but the *stored* column indices remain the original
            ones — so multiplication code is unaffected (Section 5: the
            column permutation never needs to be stored).
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise MatrixFormatError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
        n, m = matrix.shape
        if column_order is None:
            rows, cols = np.nonzero(matrix)
            return cls._from_coo_ordered(rows, cols, matrix[rows, cols], (n, m))
        perm = _check_permutation(column_order, m)
        permuted = matrix[:, perm]
        rows, pos = np.nonzero(permuted)
        cols = perm[pos]
        vals = permuted[rows, pos]
        return cls._from_coo_ordered(rows, cols, vals, (n, m))

    @classmethod
    def from_scipy(cls, matrix) -> CSRVMatrix:
        """Build from any scipy.sparse matrix (zeros are dropped)."""
        from scipy import sparse

        coo = sparse.coo_matrix(matrix)
        return cls.from_arrays(coo.row, coo.col, coo.data, coo.shape)

    @classmethod
    def from_arrays(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
    ) -> CSRVMatrix:
        """Build from COO triplets (need not be sorted; ties keep order)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise MatrixFormatError("rows/cols/vals must have identical shapes")
        n, m = int(shape[0]), int(shape[1])
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise MatrixFormatError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= m):
            raise MatrixFormatError("column index out of range")
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.argsort(rows, kind="stable")
        return cls._from_coo_ordered(rows[order], cols[order], vals[order], (n, m))

    @classmethod
    def _from_coo_ordered(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
    ) -> CSRVMatrix:
        """Internal: triplets already sorted by row (ties in layout order)."""
        n, m = shape
        values, value_idx = np.unique(vals, return_inverse=True)
        codes = 1 + value_idx.astype(np.int64) * m + cols
        # Row r ends with its separator, so the i-th triplet (in row
        # order) sits at i + r in S.
        s = np.zeros(codes.size + n, dtype=np.int64)
        s[np.arange(codes.size) + rows] = codes
        return cls(s, values, (n, m))

    # -- invariants ----------------------------------------------------------------

    def _validate(self) -> None:
        n, m = self._shape
        n_sep = int(np.count_nonzero(self._s == ROW_SEPARATOR))
        if n_sep != n:
            raise MatrixFormatError(
                f"S contains {n_sep} row separators for {n} rows"
            )
        if self._s.size and int(self._s.min()) < 0:
            raise MatrixFormatError("S contains negative codes")
        max_code = int(self._s.max()) if self._s.size else 0
        limit = len(self._values) * m
        if max_code > limit:
            raise MatrixFormatError(
                f"S contains code {max_code} beyond the ⟨ℓ,j⟩ code space {limit}"
            )

    # -- basic accessors ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return self._shape

    @property
    def s(self) -> np.ndarray:
        """The integer sequence ``S`` (read-only view)."""
        view = self._s.view()
        view.flags.writeable = False
        return view

    @property
    def values(self) -> np.ndarray:
        """The distinct non-zero value array ``V`` (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return int(self._s.size - self._shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRVMatrix):
            return NotImplemented
        return (
            self._shape == other._shape
            and np.array_equal(self._s, other._s)
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self) -> str:
        n, m = self._shape
        return f"CSRVMatrix(shape=({n}, {m}), nnz={self.nnz}, |V|={len(self._values)})"

    def size_bytes(self) -> int:
        """Bytes of the paper's physical layout: 32-bit ``S`` + doubles ``V``."""
        return sum(self.size_breakdown().values())

    def size_breakdown(self) -> dict[str, int]:
        """Component bytes: the sequence ``S`` and the dictionary ``V``."""
        return {"S": 4 * int(self._s.size), "V": 8 * int(self._values.size)}

    def resident_overhead_bytes(self) -> int:
        """Decoded working caches a *served* block accrues: the
        ``(row, ℓ, j)`` views (3 × 8 bytes/nonzero) plus the scipy CSR
        view the kernels run on (~16 bytes/nonzero + the index
        pointer)."""
        return 40 * self.nnz + 8 * (self._shape[0] + 1)

    # -- decoded views -------------------------------------------------------------

    def _decoded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached (row, ℓ, j) arrays for the non-zero entries of ``S``.

        The triple is built in locals and stored under one key: one dict
        store is atomic, so a concurrent caller sees either no decode
        (and decodes too) or all three arrays, never a partial set.
        """
        decoded = self._cache.get("decoded")
        if decoded is None:
            m = self._shape[1]
            is_sep = self._s == ROW_SEPARATOR
            row_of_pos = np.cumsum(is_sep) - is_sep
            nz = ~is_sep
            pair = self._s[nz] - 1
            decoded = (
                np.ascontiguousarray(row_of_pos[nz]),
                np.ascontiguousarray(pair // m),
                np.ascontiguousarray(pair % m),
            )
            self._cache["decoded"] = decoded
        return decoded

    def _scipy_csr(self):
        """Cached scipy CSR view for the multiplication kernels.

        ``S`` is row-major, so the decoded row array is sorted and the
        CSR index pointer is a single ``searchsorted`` — a vector or a
        panel then runs as one compiled SpMV / SpMM instead of a
        python-level gather/scatter per entry.  Cached like
        :meth:`_decoded` (a working view, not part of the stored
        representation or its size accounting).
        """
        if "csr" not in self._cache:
            from scipy import sparse

            rows, l_idx, j_idx = self._decoded()
            indptr = np.searchsorted(rows, np.arange(self._shape[0] + 1))
            self._cache["csr"] = sparse.csr_matrix(
                (self._values[l_idx], j_idx, indptr), shape=self._shape
            )
        return self._cache["csr"]

    def to_dense(self) -> np.ndarray:
        """Materialise the represented matrix as a dense float64 array."""
        rows, l_idx, j_idx = self._decoded()
        out = np.zeros(self._shape, dtype=np.float64)
        out[rows, j_idx] = self._values[l_idx]
        return out

    def iter_rows(self):
        """Yield, for each row, the ``(columns, values)`` arrays of that row."""
        rows, l_idx, j_idx = self._decoded()
        n = self._shape[0]
        boundaries = np.searchsorted(rows, np.arange(n + 1))
        for r in range(n):
            lo, hi = boundaries[r], boundaries[r + 1]
            yield j_idx[lo:hi], self._values[l_idx[lo:hi]]

    # -- multiplication (Section 2) --------------------------------------------------

    def _right(self, x: np.ndarray, out, executor) -> np.ndarray:
        """``y = M x`` with a single scan of ``S``."""
        return fill_out(out, self._scipy_csr() @ x)

    def _left(self, y: np.ndarray, out, executor) -> np.ndarray:
        """``xᵗ = yᵗ M`` with a single scan of ``S``."""
        return fill_out(out, self._scipy_csr().T @ y)

    def with_column_order(self, column_order) -> CSRVMatrix:
        """Re-lay-out each row's pairs following a column permutation.

        Unlike :meth:`from_dense` with ``column_order`` this keeps the
        existing (possibly shared) value array ``V`` and code space —
        required when reordering individual row blocks of a partitioned
        matrix (Section 5.3), where all blocks must keep indexing the
        single global ``V`` of Section 4.1.
        """
        n, m = self._shape
        perm = _check_permutation(column_order, m)
        position_of_column = np.empty(m, dtype=np.int64)
        position_of_column[perm] = np.arange(m)
        rows, _l_idx, j_idx = self._decoded()
        codes = self._s[self._s != ROW_SEPARATOR]
        new_order = np.lexsort((position_of_column[j_idx], rows))
        new_s = self._s.copy()
        new_s[self._s != ROW_SEPARATOR] = codes[new_order]
        return CSRVMatrix(new_s, self._values, (n, m))

    # -- partitioning (Section 4.1) ---------------------------------------------------

    def split_rows(self, n_blocks: int) -> list["CSRVMatrix"]:
        """Partition into ``n_blocks`` row blocks sharing the array ``V``.

        Block ``i`` covers rows ``[i·⌈n/b⌉, (i+1)·⌈n/b⌉)`` as in
        Section 4.1 (the last block may be smaller).
        """
        n, m = self._shape
        if not 1 <= n_blocks <= n:
            raise MatrixFormatError(
                f"cannot split {n} rows into {n_blocks} blocks"
            )
        rows_per_block = -(-n // n_blocks)  # ceil division
        sep_positions = np.flatnonzero(self._s == ROW_SEPARATOR)
        blocks = []
        for b in range(n_blocks):
            lo_row = b * rows_per_block
            hi_row = min(n, lo_row + rows_per_block)
            if lo_row >= hi_row:
                break
            lo = 0 if lo_row == 0 else sep_positions[lo_row - 1] + 1
            hi = sep_positions[hi_row - 1] + 1
            blocks.append(
                CSRVMatrix(self._s[lo:hi], self._values, (hi_row - lo_row, m))
            )
        return blocks


def _check_permutation(order, m: int) -> np.ndarray:
    """Validate ``order`` as a permutation of ``range(m)`` (or identity)."""
    if order is None:
        return np.arange(m, dtype=np.int64)
    perm = np.asarray(order, dtype=np.int64)
    if perm.shape != (m,) or not np.array_equal(np.sort(perm), np.arange(m)):
        raise MatrixFormatError(f"column_order is not a permutation of range({m})")
    return perm
