"""The CLA compressed matrix: planned column groups + compressed MVM.

:class:`CLAMatrix` ties the planner and the group formats together:

1. :func:`repro.cla.planner.plan_column_groups` decides which columns
   are co-coded;
2. each planned group is encoded in every concrete format and the
   smallest is kept (CLA's greedy format selection, done exactly here
   because our matrices are laptop-scale);
3. multiplications iterate the groups — optionally in parallel on a
   :class:`repro.serve.executor.BlockExecutor`, mirroring CLA's
   multithreaded executor — and accumulate into shared output vectors.

Parallelism routes through the same persistent ``BlockExecutor`` the
row-sharded and blocked matrices use (passed as ``executor=``), so the
whole package has exactly one pool implementation.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.cla.colgroup import GROUP_FORMATS
from repro.cla.planner import plan_column_groups
from repro.errors import MatrixFormatError
from repro.formats.base import MatrixFormat


# -- per-group workers, mapped over the groups by a BlockExecutor ---------------------


def _right_group_partial(group, _i: int, x: np.ndarray, n_rows: int) -> np.ndarray:
    y = np.zeros(n_rows, dtype=np.float64)
    group.right_mvm(x, y)
    return y


def _left_group_partial(group, _i: int, y: np.ndarray, n_cols: int) -> np.ndarray:
    x = np.zeros(n_cols, dtype=np.float64)
    group.left_mvm(y, x)
    return x


class CLAMatrix(MatrixFormat):
    """A matrix compressed with CLA-style column co-coding."""

    format_name = "cla"

    def __init__(self, groups: list, shape: tuple[int, int]):
        if not groups:
            raise MatrixFormatError("CLAMatrix requires at least one group")
        self._groups = list(groups)
        self._shape = (int(shape[0]), int(shape[1]))
        covered = sorted(c for g in self._groups for c in g.columns.tolist())
        if covered != list(range(self._shape[1])):
            raise MatrixFormatError(
                "column groups must cover every column exactly once"
            )

    # -- construction -------------------------------------------------------------

    @classmethod
    def compress(
        cls,
        matrix: np.ndarray,
        sample_rows: int = 4096,
        max_group_size: int = 8,
        window: int = 12,
        seed: int = 0,
    ) -> CLAMatrix:
        """Plan, co-code and encode ``matrix``.

        See :func:`repro.cla.planner.plan_column_groups` for the
        planning parameters.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise MatrixFormatError(
                f"expected a 2-D matrix, got ndim={matrix.ndim}"
            )
        plans = plan_column_groups(
            matrix,
            sample_rows=sample_rows,
            max_group_size=max_group_size,
            window=window,
            seed=seed,
        )
        groups = []
        for plan in plans:
            candidates = [
                fmt.from_dense(matrix, list(plan.columns))
                for fmt in GROUP_FORMATS
            ]
            groups.append(min(candidates, key=lambda g: g.size_bytes()))
        return cls(groups, matrix.shape)

    # -- accessors ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return self._shape

    @property
    def groups(self) -> list:
        """The encoded column groups."""
        return list(self._groups)

    def format_summary(self) -> dict[str, int]:
        """Count of groups per format name (planning diagnostics)."""
        out: dict[str, int] = {}
        for g in self._groups:
            out[g.format_name] = out.get(g.format_name, 0) + 1
        return out

    def __repr__(self) -> str:
        return (
            f"CLAMatrix(shape={self._shape}, groups={len(self._groups)}, "
            f"formats={self.format_summary()})"
        )

    def size_bytes(self) -> int:
        """Total bytes over all encoded groups."""
        return sum(g.size_bytes() for g in self._groups)

    def size_breakdown(self) -> dict[str, int]:
        """Bytes per group format (OLE / RLE / DDC / UC)."""
        out: dict[str, int] = {}
        for g in self._groups:
            out[g.format_name] = out.get(g.format_name, 0) + g.size_bytes()
        return out

    def to_dense(self) -> np.ndarray:
        """Materialise the represented matrix (lossless)."""
        out = np.zeros(self._shape, dtype=np.float64)
        for g in self._groups:
            out[:, g.columns] = g.to_dense_block()
        return out

    # -- multiplication ----------------------------------------------------------------

    def _right_vector(self, x: np.ndarray, executor) -> np.ndarray:
        """``y = M x`` over the compressed groups."""
        if executor is None or len(self._groups) == 1:
            y = np.zeros(self._shape[0], dtype=np.float64)
            for g in self._groups:
                g.right_mvm(x, y)
            return y
        fn = partial(_right_group_partial, x=x, n_rows=self._shape[0])
        return np.sum(executor.map_blocks(fn, self._groups), axis=0)

    def _left_vector(self, y: np.ndarray, executor) -> np.ndarray:
        """``xᵗ = yᵗ M`` over the compressed groups."""
        if executor is None or len(self._groups) == 1:
            x = np.zeros(self._shape[1], dtype=np.float64)
            for g in self._groups:
                g.left_mvm(y, x)
            return x
        fn = partial(_left_group_partial, y=y, n_cols=self._shape[1])
        return np.sum(executor.map_blocks(fn, self._groups), axis=0)
