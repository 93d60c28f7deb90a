"""CLA compression planning: format estimation and column co-coding.

CLA's planning phase (Elgohary et al., Section "compression planning")
samples the matrix, estimates the compressed size of each column under
every format, greedily *co-codes* groups of correlated columns when the
joint encoding is estimated to be smaller than the separate ones, and
finally picks the best concrete format per group.

This module follows that structure with one simplification: candidate
merges are restricted to a sliding window over columns ordered by
estimated distinct-tuple count, rather than CLA's bin-packing over all
pairs — the quadratic pair search is infeasible for wide matrices in
pure Python and the window captures the same highly-correlated
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cla.colgroup import OLE_SEGMENT_ROWS, _code_width
from repro.errors import PlanningError


@dataclass(frozen=True)
class GroupPlan:
    """A planned column group: which columns to co-code together."""

    columns: tuple[int, ...]
    estimated_bytes: float


def _estimate_group_bytes(
    sample: np.ndarray, columns: list[int], n_rows: int
) -> float:
    """Estimated full-matrix bytes of the best format for ``columns``.

    Statistics measured on the sample (distinct tuples ``d``, non-zero
    tuple rows ``nnz_rows``, runs) are extrapolated linearly to
    ``n_rows``, mirroring CLA's sample-based estimators.
    """
    sub = sample[:, columns]
    s = sub.shape[0]
    if s == 0:
        raise PlanningError("cannot plan with an empty sample")
    scale = n_rows / s
    tuples, codes = np.unique(sub, axis=0, return_inverse=True)
    codes = codes.ravel()
    d = tuples.shape[0]
    g = len(columns)
    dict_bytes = 8.0 * d * g
    nz_tuple = np.any(tuples != 0.0, axis=1)
    nnz_rows = int(nz_tuple[codes].sum())
    runs = 1 + int(np.count_nonzero(codes[1:] != codes[:-1])) if s > 1 else 1
    nz_runs = max(1, int(runs * (nnz_rows / s if s else 0)))
    n_segments = max(1, -(-n_rows // OLE_SEGMENT_ROWS))
    est_ole = dict_bytes + 2.0 * nnz_rows * scale + 2.0 * d * n_segments
    est_rle = dict_bytes + 4.0 * nz_runs * scale
    est_ddc = dict_bytes + _code_width(d) * float(n_rows)
    est_uc = 8.0 * n_rows * g
    return min(est_ole, est_rle, est_ddc, est_uc)


def plan_column_groups(
    matrix: np.ndarray,
    sample_rows: int = 4096,
    max_group_size: int = 8,
    window: int = 12,
    seed: int = 0,
) -> list[GroupPlan]:
    """Produce the co-coding plan for ``matrix``.

    Parameters
    ----------
    sample_rows:
        Rows sampled for estimation (without replacement).
    max_group_size:
        Upper bound on columns per group (CLA keeps groups small so the
        per-group dictionary stays manageable).
    window:
        Merge-candidate window over the distinct-count column ordering.
    seed:
        Sampling seed; planning is deterministic given the seed.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise PlanningError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
    n, m = matrix.shape
    if n == 0 or m == 0:
        raise PlanningError("cannot plan an empty matrix")
    if sample_rows < n:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n, size=sample_rows, replace=False))
        sample = matrix[idx]
    else:
        sample = matrix

    # Singleton estimates, then order columns by distinct count so the
    # sliding window pairs columns with similar (and small) dictionaries.
    singles = {c: _estimate_group_bytes(sample, [c], n) for c in range(m)}
    distinct = {
        c: int(np.unique(sample[:, c]).size) for c in range(m)
    }
    col_order = sorted(range(m), key=lambda c: (distinct[c], c))

    groups: list[list[int]] = [[c] for c in col_order]
    costs: list[float] = [singles[c] for c in col_order]
    # Greedy pass: try to merge each group with its successors inside
    # the window; keep merging while the estimate improves.
    i = 0
    while i < len(groups):
        merged_any = False
        j = i + 1
        limit = min(len(groups), i + 1 + window)
        while j < limit:
            if len(groups[i]) + len(groups[j]) > max_group_size:
                j += 1
                continue
            candidate = groups[i] + groups[j]
            est = _estimate_group_bytes(sample, candidate, n)
            if est < costs[i] + costs[j]:
                groups[i] = candidate
                costs[i] = est
                del groups[j], costs[j]
                limit = min(len(groups), i + 1 + window)
                merged_any = True
            else:
                j += 1
        if not merged_any:
            i += 1
    return [
        GroupPlan(columns=tuple(sorted(g)), estimated_bytes=c)
        for g, c in zip(groups, costs, strict=True)
    ]
