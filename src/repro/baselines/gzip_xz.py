"""gzip and xz baselines over the raw matrix bytes (Table 1).

The paper compresses the full ``rows × cols × 8``-byte double
representation with ``gzip`` and ``xz`` at their default levels.  These
are exactly the DEFLATE (zlib) and LZMA (lzma) streams produced by the
standard library, so the compression ratios are directly comparable.

Crucially — and this is the contrast the paper draws — these formats
support **no** compressed-domain operations: both multiplication
directions first decompress the entire matrix, so their working memory
is the full dense size (modelled by
:func:`repro.bench.memory.peak_mvm_bytes`).  The panel kernels at least
amortise that: one decompression serves the whole batch.
"""

from __future__ import annotations

import lzma
import zlib

import numpy as np

from repro.errors import MatrixFormatError
from repro.formats.base import MatrixFormat


class _WholeFileCompressedMatrix(MatrixFormat):
    """Shared machinery for compressors without compressed-domain ops."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise MatrixFormatError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
        self._shape = matrix.shape
        self._blob = self._compress(np.ascontiguousarray(matrix).tobytes())

    @classmethod
    def from_blob(cls, shape: tuple[int, int], blob: bytes):
        """Rewrap an already-compressed stream (deserialization)."""
        obj = cls.__new__(cls)
        obj._shape = (int(shape[0]), int(shape[1]))
        obj._blob = bytes(blob)
        return obj

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return self._shape  # type: ignore[return-value]

    @property
    def blob(self) -> bytes:
        """The compressed stream (what serialization stores)."""
        return self._blob

    def to_dense(self) -> np.ndarray:
        """Full decompression back to a dense array."""
        raw = self._decompress(self._blob)
        return np.frombuffer(raw, dtype=np.float64).reshape(self._shape).copy()

    # -- kernels (decompress, then BLAS) --------------------------------------------

    def _right(self, x: np.ndarray, out, executor) -> np.ndarray:
        return np.matmul(self.to_dense(), x, out=out)

    def _left(self, y: np.ndarray, out, executor) -> np.ndarray:
        return np.matmul(self.to_dense().T, y, out=out)

    # -- accounting ----------------------------------------------------------------

    def size_bytes(self) -> int:
        """Size of the compressed stream."""
        return len(self._blob)

    def size_breakdown(self) -> dict[str, int]:
        return {"stream": len(self._blob)}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self._shape}, bytes={len(self._blob)})"

    # Subclasses provide the codec.
    def _compress(self, raw: bytes) -> bytes:
        raise NotImplementedError

    def _decompress(self, blob: bytes) -> bytes:
        raise NotImplementedError


class GzipMatrix(_WholeFileCompressedMatrix):
    """DEFLATE at the default level (gzip's default of 6)."""

    format_name = "gzip"

    def _compress(self, raw: bytes) -> bytes:
        return zlib.compress(raw, level=6)

    def _decompress(self, blob: bytes) -> bytes:
        return zlib.decompress(blob)


class XzMatrix(_WholeFileCompressedMatrix):
    """LZMA at xz's default preset (6)."""

    format_name = "xz"

    def _compress(self, raw: bytes) -> bytes:
        return lzma.compress(raw, preset=6)

    def _decompress(self, blob: bytes) -> bytes:
        return lzma.decompress(blob)
