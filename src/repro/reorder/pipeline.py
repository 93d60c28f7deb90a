"""End-to-end column-reordering pipelines (Sections 5.1–5.3).

:func:`reorder_columns` computes a single permutation for a matrix:
similarity → optional pruning → one of the four algorithms.

:func:`compress_with_reordering` reproduces the Section 5.3 recipe used
for Table 4: split the matrix into row blocks; for each candidate
algorithm, reorder every block independently (each block may get a
different permutation) and compress blockwise; keep the algorithm whose
*total* compressed size is smallest.  The column permutations never
need to be stored because CSRV pairs retain original column indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocked import BlockedMatrix, compress_part
from repro.errors import MatrixFormatError
from repro.reorder.matching import matching_order
from repro.reorder.path_cover import path_cover_order, path_cover_plus_order
from repro.reorder.similarity import (
    column_similarity_matrix,
    prune_global,
    prune_local,
)
from repro.reorder.tsp import tsp_order

#: Supported column-reordering method names (Section 5.2).
REORDER_METHODS = ("pathcover", "pathcover+", "mwm", "lkh")

#: Intra-row layout strategies (the paper's future-work direction,
#: :mod:`repro.reorder.intra_row`); usable as pipeline candidates
#: alongside the column methods.
INTRA_ROW_METHODS = ("intra-code", "intra-freq")

#: Supported pruning modes for the similarity matrix.
PRUNING_MODES = ("none", "local", "global")


def _order_for(method: str, csm: np.ndarray) -> np.ndarray:
    if method == "pathcover":
        return path_cover_order(csm)
    if method == "pathcover+":
        return path_cover_plus_order(csm)
    if method == "mwm":
        return matching_order(csm)
    if method == "lkh":
        return tsp_order(csm)
    raise MatrixFormatError(
        f"unknown reorder method {method!r}; expected one of {REORDER_METHODS}"
    )


def reorder_columns(
    matrix: np.ndarray,
    method: str = "pathcover",
    k: int = 16,
    pruning: str = "local",
    sample_rows: int | None = None,
) -> np.ndarray:
    """Compute a column permutation for ``matrix``.

    Parameters
    ----------
    method:
        One of :data:`REORDER_METHODS`.
    k:
        Sparsity parameter of the pruned similarity matrix (the paper
        sweeps k ∈ {4, 8, 16}; locally pruned k=16 is its default for
        the Table 4 pipeline).
    pruning:
        ``"local"`` (paper's best), ``"global"``, or ``"none"`` (full
        CSM).
    sample_rows:
        Optional row subsample for the similarity computation.
    """
    if pruning not in PRUNING_MODES:
        raise MatrixFormatError(
            f"unknown pruning {pruning!r}; expected one of {PRUNING_MODES}"
        )
    csm = column_similarity_matrix(matrix, sample_rows=sample_rows)
    if pruning == "local":
        csm = prune_local(csm, k)
    elif pruning == "global":
        csm = prune_global(csm, k)
    return _order_for(method, csm)


@dataclass(frozen=True)
class ReorderedCompression:
    """Result of :func:`compress_with_reordering`.

    Attributes
    ----------
    matrix:
        The blockwise-compressed matrix (best algorithm applied).
    method:
        Name of the winning reordering algorithm.
    orders:
        The per-block column permutations the winner used.
    sizes_by_method:
        Total compressed bytes per candidate algorithm (the selection
        evidence; useful for reporting).
    """

    matrix: BlockedMatrix
    method: str
    orders: list
    sizes_by_method: dict[str, int]


def compress_with_reordering(
    matrix: np.ndarray,
    variant: str = "re_ans",
    n_blocks: int = 16,
    methods: tuple[str, ...] = ("pathcover", "mwm"),
    k: int = 16,
    pruning: str = "local",
    sample_rows: int | None = None,
) -> ReorderedCompression:
    """Blockwise reorder-and-compress, keeping the best algorithm.

    This is the paper's Table 4 procedure: candidate algorithms
    (PathCover and MWM with locally-pruned CSM, k = 16, by default) are
    applied per block; one algorithm is selected per *matrix* by total
    compressed size, and each block keeps its own permutation from the
    winning algorithm.

    ``methods`` may also include the intra-row layout strategies
    ``"intra-code"`` / ``"intra-freq"`` (:mod:`repro.reorder.intra_row`,
    the paper's future-work direction) — these compete in the same
    best-of selection but permute pairs per row instead of per column,
    so the winning ``orders`` list is empty for them.

    All candidates share the single global value array ``V``
    (Section 4.1), so the reported sizes are directly comparable.
    """
    from repro.core.csrv import CSRVMatrix
    from repro.reorder.intra_row import reorder_within_rows

    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise MatrixFormatError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
    if not methods:
        raise MatrixFormatError("need at least one candidate method")
    n = matrix.shape[0]
    n_blocks = max(1, min(n_blocks, n))
    csrv = CSRVMatrix.from_dense(matrix)
    parts = csrv.split_rows(n_blocks)

    # Per-block similarity matrices, shared across the column methods
    # (and skipped entirely when only intra-row candidates are asked).
    csms: list | None = None
    if any(m not in INTRA_ROW_METHODS for m in methods):
        rows_per_block = -(-n // n_blocks)
        csms = []
        for start in range(0, n, rows_per_block):
            csm = column_similarity_matrix(
                matrix[start : start + rows_per_block], sample_rows=sample_rows
            )
            if pruning == "local":
                csm = prune_local(csm, k)
            elif pruning == "global":
                csm = prune_global(csm, k)
            csms.append(csm)

    sizes_by_method: dict[str, int] = {}
    best_size: int | None = None
    best_method = methods[0]
    best_matrix: BlockedMatrix | None = None
    best_orders: list = []
    for method in methods:
        if method in INTRA_ROW_METHODS:
            key = "code" if method == "intra-code" else "frequency"
            laid_out = [reorder_within_rows(p, key=key) for p in parts]
            orders = []
        else:
            assert csms is not None
            orders = [_order_for(method, csm) for csm in csms]
            laid_out = [
                p.with_column_order(order)
                for p, order in zip(parts, orders, strict=True)
            ]
        compressed = BlockedMatrix(
            [compress_part(p, variant) for p in laid_out], matrix.shape
        )
        size = compressed.size_bytes()
        sizes_by_method[method] = size
        if best_size is None or size < best_size:
            best_size, best_method = size, method
            best_matrix, best_orders = compressed, orders
    assert best_matrix is not None
    return ReorderedCompression(best_matrix, best_method, best_orders, sizes_by_method)
